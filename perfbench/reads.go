package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// Read kinds. Every workload mixes all five, with its own weights.
const (
	kPoint = iota // ground atom
	kQuant        // existentially quantified, one person or key
	kJoin         // two-entity comparison (the paper's Q1 shape)
	kOpen         // open query: certain answers with free variables
	kCount        // repair count of the small relation
	nKinds
)

var kindNames = [nKinds]string{"point", "quant", "join", "open", "count"}

// readReq is one read request plus the answers it may legally get.
type readReq struct {
	kind     int
	fam      prefcqa.Family
	text     string // query text, or the relation name for kCount
	follower bool   // sent to the follower instead of the primary
	minVer   uint64
	// check validates the response; sent and ret bracket the request.
	check func(r *readResp, sent, ret time.Time) error
}

// readResp is the decoded response of any read kind.
type readResp struct {
	answer   string
	bindings string // canonical form, see canonBindings
	count    int64
	version  uint64
}

// wire returns the endpoint path and JSON body of the request.
func (r *readReq) wire() (string, any) {
	opts := client.ReadOptions{MinVersion: r.minVer}
	switch r.kind {
	case kCount:
		return client.PathCount, client.CountRequest{DB: dbName, Family: r.fam.String(), Relation: r.text, ReadOptions: opts}
	case kOpen:
		return client.PathQueryOpen, client.QueryRequest{DB: dbName, Family: r.fam.String(), Query: r.text, ReadOptions: opts}
	default:
		return client.PathQuery, client.QueryRequest{DB: dbName, Family: r.fam.String(), Query: r.text, ReadOptions: opts}
	}
}

// decodeRead decodes a response body for the request's kind.
func (r *readReq) decode(dec func(out any) error) (*readResp, error) {
	switch r.kind {
	case kCount:
		var out client.CountResponse
		if err := dec(&out); err != nil {
			return nil, err
		}
		return &readResp{count: out.Count, version: out.Version}, nil
	case kOpen:
		var out client.QueryOpenResponse
		if err := dec(&out); err != nil {
			return nil, err
		}
		return &readResp{bindings: canonBindings(out.Bindings), version: out.Version}, nil
	default:
		var out client.QueryResponse
		if err := dec(&out); err != nil {
			return nil, err
		}
		return &readResp{answer: out.Answer, version: out.Version}, nil
	}
}

// send performs the request over the connection's socket.
func (r *readReq) send(ctx context.Context, c *conn) (*readResp, error) {
	cl := c.primary
	if r.follower {
		cl = c.follower
	}
	path, body := r.wire()
	return r.decode(func(out any) error { return cl.Do(ctx, path, body, out) })
}

// serveInMemory runs the same request through the server's handler
// with an in-memory recorder: the handler's cost without the socket.
func (r *readReq) serveInMemory(h http.Handler) (*readResp, error) {
	path, body := r.wire()
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-memory %s: HTTP %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return r.decode(func(out any) error { return json.Unmarshal(rec.Body.Bytes(), out) })
}

// canonBindings renders wire bindings as one sorted string.
func canonBindings(bs []map[string]string) string {
	rows := make([]string, 0, len(bs))
	for _, b := range bs {
		kv := make([]string, 0, len(b))
		for k, v := range b {
			kv = append(kv, k+"="+v)
		}
		sort.Strings(kv)
		rows = append(rows, strings.Join(kv, ","))
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// canonFacade renders facade bindings the way the server encodes them.
func canonFacade(bs []prefcqa.Binding) string {
	wire := make([]map[string]string, 0, len(bs))
	for _, b := range bs {
		m := make(map[string]string, len(b))
		for k, v := range b {
			m[k] = prefcqa.EncodeValue(v)
		}
		wire = append(wire, m)
	}
	return canonBindings(wire)
}

// facadeRead answers the request through the in-process facade on a
// snapshot, in the response's canonical form.
func (r *readReq) facadeRead(ctx context.Context, snap *prefcqa.Snapshot) (*readResp, error) {
	switch r.kind {
	case kCount:
		n, err := snap.CountRepairsContext(ctx, r.fam, r.text)
		return &readResp{count: n}, err
	case kOpen:
		bs, err := snap.QueryOpenContext(ctx, r.fam, r.text)
		return &readResp{bindings: canonFacade(bs)}, err
	default:
		a, err := snap.QueryContext(ctx, r.fam, r.text)
		return &readResp{answer: a.String()}, err
	}
}

// expectExact returns a check accepting only want.
func expectExact(want *readResp) func(*readResp, time.Time, time.Time) error {
	return func(got *readResp, _, _ time.Time) error {
		if got.answer != want.answer || got.bindings != want.bindings || got.count != want.count {
			return fmt.Errorf("wrong answer: got %s, want %s", got.describe(), want.describe())
		}
		return nil
	}
}

func (r *readResp) describe() string {
	switch {
	case r.answer != "":
		return r.answer
	case r.bindings != "":
		return "{" + r.bindings + "}"
	default:
		return fmt.Sprintf("count=%d", r.count)
	}
}
