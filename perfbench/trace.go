package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one request share Req; Parent is the enclosing span
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	counters map[string]float64
	nextID   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counters: map[string]float64{}} }

// newReq returns a fresh request ID.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return t.nextID
}

// open starts a span whose ID children can name before it ends.
func (t *tracer) open(name string, parent, req int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()}}
}

type openSpan struct {
	t *tracer
	s span
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int64, fn func() error) error {
	s := t.open(name, parent, req)
	err := fn()
	s.end()
	return err
}

func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time in µs: its
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e3)
	}
	return out
}

// write stores the spans (one JSON object per line) and the counters
// under dir.
func (t *tracer) write(dir, stem string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	counters, err := json.MarshalIndent(t.counters, "", "  ")
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".counters.json"), counters, 0o644); err != nil {
		return fmt.Errorf("write counters: %w", err)
	}
	return nil
}
