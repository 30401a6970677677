package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/server"
)

// dbName is the database every workload serves.
const dbName = "bench"

// fsync is the WAL sync policy of every server the benchmark boots.
const fsync = prefcqa.SyncGroup

// node is one prefserve server on a loopback socket: the
// internal/server Server that cmd/prefserve runs, built the way
// cmd/prefserve builds it, with production default options. Only the
// data directory, the fsync policy and (for a follower) the primary's
// URL are set. It runs in the benchmark's process, so the traced run
// can call into its databases, and so that client and server share one
// scheduler: as two processes on two CPUs their threads contend, and
// the run-to-run spread of every figure grows several-fold.
type node struct {
	srv  *server.Server
	url  string
	dir  string
	done chan error
}

func startNode(dir, follow string) (*node, error) {
	srv := server.New(server.Options{
		DataDir:   dir,
		DBOptions: []prefcqa.Option{prefcqa.WithSyncPolicy(fsync)},
		FollowURL: follow,
	})
	if _, err := srv.RecoverDBs(); err != nil {
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := srv.StartReplication(); err != nil {
		l.Close()
		return nil, err
	}
	n := &node{srv: srv, url: "http://" + l.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(l) }()
	return n, nil
}

// stop drains the server, closes its databases and waits for Serve to
// return.
func (n *node) stop() error {
	if n == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// replicaDB returns a follower's in-process handle on its replica of
// the benchmark database. (Server.Replica marks the database
// read-only, so it is never used on the primary.)
func (n *node) replicaDB() (*prefcqa.DB, error) {
	db, _, err := n.srv.Replica(dbName)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// conn is one load-generating connection: a client per server with
// its own transport, so each conn holds at most one socket per server
// and never has two requests in flight.
type conn struct {
	primary, follower *client.Client
	transports        []*http.Transport
}

func newConn(primaryURL, followerURL string) *conn {
	c := &conn{}
	mk := func(url string) *client.Client {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
		c.transports = append(c.transports, tr)
		return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}))
	}
	c.primary = mk(primaryURL)
	if followerURL != "" {
		c.follower = mk(followerURL)
	}
	return c
}

func (c *conn) close() {
	for _, tr := range c.transports {
		tr.CloseIdleConnections()
	}
}

// sampler collects one connection's samples (in µs unless named
// otherwise) and its attempt and failure counts. Not safe for
// concurrent use; merge per-connection samplers after the phase.
type sampler struct {
	series    map[string][]float64
	at        map[string][]time.Time // when each sample was taken
	attempted int
	failed    int
	errs      []string
}

func newSampler() *sampler {
	return &sampler{series: map[string][]float64{}, at: map[string][]time.Time{}}
}

func (s *sampler) add(name string, v float64) {
	s.series[name] = append(s.series[name], v)
	s.at[name] = append(s.at[name], time.Now())
}

// windowed returns the median, over consecutive windows of length w
// from start, of each window's q-quantile of the named series. A tail
// percentile taken this way is not moved by one disturbed window.
// Windows with fewer than min samples are skipped.
func (s *sampler) windowed(name string, start time.Time, w time.Duration, q float64, min int) float64 {
	byWin := map[int][]float64{}
	for i, v := range s.series[name] {
		k := int(s.at[name][i].Sub(start) / w)
		byWin[k] = append(byWin[k], v)
	}
	var qs []float64
	for _, xs := range byWin {
		if len(xs) >= min {
			qs = append(qs, percentile(xs, q))
		}
	}
	return median(qs)
}

// outcome counts one attempted request and, when err is non-nil, one
// failure (an error, a 503/504 refusal or a wrong answer alike).
func (s *sampler) outcome(err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if len(s.errs) < 5 {
			s.errs = append(s.errs, err.Error())
		}
	}
}

func (s *sampler) merge(o *sampler) {
	for k, v := range o.series {
		s.series[k] = append(s.series[k], v...)
		s.at[k] = append(s.at[k], o.at[k]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	for _, e := range o.errs {
		if len(s.errs) < 10 {
			s.errs = append(s.errs, e)
		}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// openLoop issues n operations on one connection at a fixed rate
// starting at start, each due at start + i/rate regardless of how long
// earlier ones took. do receives the due time and times its work from
// it; the generator's own lateness (send time minus due time) goes to
// s as "gen.late_us".
func openLoop(start time.Time, n int, rate float64, s *sampler, do func(i int, due time.Time)) error {
	w, err := newWaiter()
	if err != nil {
		return err
	}
	defer w.close()
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if err := w.until(due); err != nil {
			return err
		}
		s.add("gen.late_us", us(time.Since(due)))
		do(i, due)
	}
	return nil
}

// capacityWindows is the number of equal windows a closed-loop phase
// is cut into. Its rate is a median of the windows' rates, so a pause
// in one window does not decide it.
const capacityWindows = 8

// closedLoop runs conns connections back to back for d. Each call of
// do completes n requests (reads or acked writes) and, with an error,
// fails one more; closedLoop returns the requests completed per second
// in each of capacityWindows windows.
func closedLoop(d time.Duration, conns int, do func(c, i int, s *sampler) (n int, err error)) (rates []float64, s *sampler) {
	var wg sync.WaitGroup
	samplers := make([]*sampler, conns)
	win := d / capacityWindows
	done := make([][capacityWindows]int, conns) // completions per window
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < conns; c++ {
		samplers[c] = newSampler()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				n, err := do(c, i, samplers[c])
				samplers[c].attempted += n
				if err != nil {
					samplers[c].outcome(err)
				}
				done[c][min(int(time.Since(start)/win), capacityWindows-1)] += n
			}
		}(c)
	}
	wg.Wait()
	s = newSampler()
	rates = make([]float64, capacityWindows)
	for c := range samplers {
		s.merge(samplers[c])
		for w, n := range done[c] {
			rates[w] += float64(n) / win.Seconds()
		}
	}
	return rates, s
}

// runDir returns the directory for one data set of this run.
func (b *bench) runDir(name string) string { return filepath.Join(b.root, name) }
