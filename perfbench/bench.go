package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prefcqa"
	"prefcqa/client"
	"prefcqa/internal/query"
	"prefcqa/internal/server"
	"prefcqa/internal/wal"
)

const (
	// setups is how often a traced run sets the workload up; the set-up
	// layer times are medians over them, and the last set-up is the one
	// measured. An untraced round sets up once: setup_s is the median
	// over the rounds.
	setups = 3
	// recoveries is how often a round restarts the primary on its data
	// directory; recovery_s is the median over the rounds of their
	// medians.
	recoveries = 5
	// closedConns is the number of connections of the closed-loop
	// capacity phases (the host's CPU count the benchmark was sized
	// for).
	closedConns = 2
	// replays caps the traced requests replayed in-process per run.
	replays = 400
)

// bench is one run of one workload.
type bench struct {
	cfg  config
	spec spec
	w    workload
	root string // this run's data directories
	tr   *tracer

	primary, follower *node
	pdb               *prefcqa.DB
	preloadVer        uint64
	mainUnits         int // write units of the main phase
	tracedUnits       int // write units sent since the traced half began
	calib             map[string]float64
	pending           *traced // the traced phase, for replays

	all    *sampler             // every timed request of the run
	series map[string][]float64 // samples behind the reported figures
	values map[string]float64   // reported metrics
	info   map[string]any
}

// phases returns the phase lengths: the spec's shares of --seconds.
func (b *bench) phases() (main, probe, reads, writes time.Duration) {
	total := float64(b.cfg.measure())
	d := func(i int) time.Duration { return time.Duration(b.spec.shares[i] * total) }
	return d(0), d(1), d(2), d(3)
}

func (b *bench) run() (*result, error) {
	b.all = newSampler()
	mainDur, probeDur, readDur, writeDur := b.phases()
	b.mainUnits = int(b.spec.writeRate * mainDur.Seconds())

	b.w = b.spec.new()
	b.w.generate(b)
	var setupS, loadS, buildS, heapMB []float64
	for i := 0; i < b.setups(); i++ {
		if i > 0 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
		b.calibrate(fmt.Sprintf("setup%d", i))
		st, err := b.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, st.total)
		loadS = append(loadS, st.load)
		buildS = append(buildS, st.build)
		heapMB = append(heapMB, st.heapMB)
	}
	b.values["setup_s"] = median(setupS)
	b.values["relation.load_s"] = median(loadS)
	b.values["conflict.build_s"] = median(buildS)
	b.values["heap_mb"] = median(heapMB)
	b.series["setup_s"] = setupS
	if st, err := b.primaryStats(); err == nil {
		b.info["wal_after_setup"] = st.WAL
	}

	b.calibrate("main")
	if err := b.mainPhase(mainDur); err != nil {
		return nil, err
	}
	if !b.spec.followerAtSetup {
		b.calibrate("probe")
		if err := b.probePhase(probeDur); err != nil {
			return nil, err
		}
	}
	if b.cfg.trace {
		if err := b.layerReplays(); err != nil {
			return nil, err
		}
		if err := b.teardown(); err != nil {
			return nil, err
		}
		b.traceMetrics()
		stem := fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed)
		if err := b.tr.write(filepath.Join(b.cfg.out, "trace"), stem); err != nil {
			return nil, err
		}
	} else {
		b.calibrate("read_capacity")
		b.readCapacity(readDur)
		// Recovery reopens what the fixed-length phases left behind;
		// the write-capacity phase, whose write count varies with
		// speed, runs afterwards on the reopened primary alone.
		if err := b.teardown(); err != nil {
			return nil, err
		}
		b.calibrate("recovery")
		if err := b.recovery(); err != nil {
			return nil, err
		}
		b.calibrate("write_capacity")
		if err := b.writeCapacity(writeDur); err != nil {
			return nil, err
		}
	}
	b.calibFigures()
	b.values["error_rate"] = ratio(float64(b.all.failed), float64(b.all.attempted))
	return b.collect()
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setupTimes are one set-up's figures.
type setupTimes struct {
	total, load, build float64 // seconds
	heapMB             float64
}

// setup boots the primary, loads the data over HTTP, makes it build
// its conflict structures, attaches the follower when the workload
// has one from the start, and warms the server up with checked reads.
// heapMB is the live heap this adds: the servers holding the data,
// measured before any read. The first set-up also computes the
// expected answers through the facade on a snapshot of the primary;
// that work is not part of the set-up time.
func (b *bench) setup(i int) (st setupTimes, err error) {
	ctx, cancel := shortCtx()
	defer cancel()
	dir := b.runDir(fmt.Sprintf("set%d", i))
	b.pdb = nil // so that the baseline does not hold the last set-up's database
	h0 := liveHeap()
	t0 := time.Now()
	if b.primary, err = startNode(filepath.Join(dir, "primary"), ""); err != nil {
		return st, err
	}
	// Created in-process, as cmd/prefserve does for -data, to keep the
	// primary's DB handle for the traced layer calls.
	if b.pdb, err = b.primary.srv.CreateDB(dbName); err != nil {
		return st, err
	}
	lc := newConn(b.primary.url, "")
	t := time.Now()
	b.preloadVer, err = b.w.load(ctx, lc.primary)
	lc.close()
	if err != nil {
		return st, fmt.Errorf("load: %w", err)
	}
	st.load = time.Since(t).Seconds()
	// The first build: the facade's first Snapshot.
	t = time.Now()
	snap, err := b.pdb.Snapshot()
	if err != nil {
		return st, fmt.Errorf("first build: %w", err)
	}
	st.build = time.Since(t).Seconds()
	if b.spec.followerAtSetup {
		if err := b.attachFollower(dir); err != nil {
			return st, err
		}
	}
	booted := time.Since(t0)
	st.heapMB = (liveHeap() - h0) / 1e6
	if i == 0 {
		if err := b.w.warm(ctx, snap); err != nil {
			return st, fmt.Errorf("expected answers: %w", err)
		}
		if err := b.workloadProps(snap); err != nil {
			return st, err
		}
	}
	// Warm-up traffic: every read checked, none timed.
	t = time.Now()
	cn := b.newConn()
	defer cn.close()
	g := b.newGen(100 + i)
	for j := 0; j < 50; j++ {
		if err := b.checkedRead(ctx, b.w.read(b, g), cn); err != nil {
			return st, fmt.Errorf("warm-up: %w", err)
		}
	}
	st.total = (booted + time.Since(t)).Seconds()
	return st, nil
}

// checkedRead sends one read and checks its answer.
func (b *bench) checkedRead(ctx context.Context, r *readReq, cn *conn) error {
	sent := time.Now()
	resp, err := r.send(ctx, cn)
	if err == nil {
		err = r.check(resp, sent, time.Now())
	}
	if err != nil {
		return fmt.Errorf("read %q: %w", r.text, err)
	}
	return nil
}

// primaryStats scrapes the primary's /v1/stats entry for the database.
func (b *bench) primaryStats() (client.DBStats, error) {
	ctx, cancel := shortCtx()
	defer cancel()
	cn := newConn(b.primary.url, "")
	defer cn.close()
	st, err := cn.primary.Stats(ctx)
	if err != nil {
		return client.DBStats{}, err
	}
	return st.DBs[dbName], nil
}

func (b *bench) setups() int {
	if b.cfg.trace {
		return setups
	}
	return 1
}

// primaryDir is the data directory of the measured primary.
func (b *bench) primaryDir() string {
	return filepath.Join(b.runDir(fmt.Sprintf("set%d", b.setups()-1)), "primary")
}

func (b *bench) newConn() *conn {
	furl := ""
	if b.follower != nil {
		furl = b.follower.url
	}
	return newConn(b.primary.url, furl)
}

// attachFollower boots a follower of the primary and waits until a
// min_version read of the current write-version returns through it.
func (b *bench) attachFollower(dir string) error {
	st, err := b.primaryStats()
	if err != nil {
		return err
	}
	t := time.Now()
	f, err := startNode(filepath.Join(dir, "follower"), b.primary.url)
	if err != nil {
		return err
	}
	b.follower = f
	ctx, cancel := shortCtx()
	defer cancel()
	fc := newConn(f.url, "")
	defer fc.close()
	if _, err := fc.primary.CountRepairs(ctx, dbName, prefcqa.Global, "Dept", client.MinVersion(st.WriteVersion)); err != nil {
		return fmt.Errorf("follower never converged: %w", err)
	}
	b.series["replication.bootstrap_s"] = append(b.series["replication.bootstrap_s"], time.Since(t).Seconds())
	return nil
}

func (b *bench) detachFollower() error {
	err := b.follower.stop()
	b.follower = nil
	return err
}

func (b *bench) teardown() error {
	err := b.follower.stop()
	if perr := b.primary.stop(); err == nil {
		err = perr
	}
	b.follower, b.primary = nil, nil
	return err
}

// readDB is the database that serves the workload's reads.
func (b *bench) readDB() (*prefcqa.DB, *server.Server, error) {
	if !b.spec.followerAtSetup {
		return b.pdb, b.primary.srv, nil
	}
	db, err := b.follower.replicaDB()
	return db, b.follower.srv, err
}

// workloadProps records the data's shape from a snapshot of it.
func (b *bench) workloadProps(snap *prefcqa.Snapshot) error {
	var tuples, conflicts, comps int
	for _, rel := range snap.Relations() {
		inst, _ := snap.Instance(rel)
		tuples += inst.Len()
		c, err := snap.Conflicts(rel)
		if err != nil {
			return err
		}
		k, err := snap.Components(rel)
		if err != nil {
			return err
		}
		conflicts += c
		comps += k
	}
	b.values["workload.tuples"] = float64(tuples)
	b.values["workload.conflicts"] = float64(conflicts)
	b.values["workload.components"] = float64(comps)
	b.values["workload.multi_choice_components"] = float64(b.w.multiChoice())
	return nil
}

// counters is a sample of the cumulative counters the per-layer
// ratios are deltas of.
type counters struct {
	q            struct{ pruned, full, direct, fallback int64 }
	hits, misses int64
	walBytes     int64
}

func (b *bench) sampleCounters(db *prefcqa.DB) counters {
	var c counters
	qs := db.QueryStats()
	c.q.pruned, c.q.full, c.q.direct, c.q.fallback = qs.ClosedPruned, qs.ClosedFull, qs.OpenDirect, qs.OpenFallback
	c.hits, c.misses = db.EngineStats()
	if ws, ok := b.pdb.WALStats(); ok {
		c.walBytes = ws.SegmentBytes
	}
	return c
}

// traced keeps what a traced main phase hands to the in-process
// replays.
type traced struct {
	reads []tracedRead
	v0    uint64          // primary write-version before the traced half
	ckpt  *wal.Checkpoint // primary state at v0
}

type tracedRead struct {
	r   *readReq
	req int64
	rtt time.Duration
}

// mainPhase is the open-loop phase: a reader connection and a writer
// connection at the workload's fixed rates. In a traced run the first
// half is untraced (counters, tails, and the reference read_p50) and
// the second half records spans; it sends the same traffic.
func (b *bench) mainPhase(d time.Duration) error {
	if !b.cfg.trace {
		s, st, err := b.openLoopPhase(d, nil)
		if err != nil {
			return err
		}
		b.mainFigures(s, st.start, d)
		return nil
	}
	db, _, err := b.readDB()
	if err != nil {
		return err
	}
	c0 := b.sampleCounters(db)
	sa, stats, err := b.openLoopPhase(d/2, nil)
	if err != nil {
		return err
	}
	c1 := b.sampleCounters(db)
	b.counterFigures(c0, c1, stats)
	b.mainFigures(sa, stats.start, d/2) // the tails, untraced
	tr := &traced{v0: b.pdb.WriteVersion()}
	if tr.ckpt, err = b.pdb.CaptureCheckpoint(); err != nil {
		return err
	}
	sb, _, err := b.openLoopPhase(d/2, tr)
	if err != nil {
		return err
	}
	b.values["gen.late_p99_us"] = percentile(append(sa.series["gen.late_us"], sb.series["gen.late_us"]...), 0.99)
	b.values["trace.overhead_us"] = median(sb.series["read_us"]) - median(sa.series["read_us"])
	b.values["workload.read_share"] = stats.readShare
	b.values["query.repeat_share"] = stats.repeatShare
	b.series["read_us.untraced"] = sa.series["read_us"]
	b.series["read_us.traced"] = sb.series["read_us"]
	b.pending = tr
	return nil
}

// phaseStats are the main phase's workload properties.
type phaseStats struct {
	start                             time.Time
	reads, writes, closedReads, opens int
	readShare, repeatShare            float64
}

// tail is the p99 of a main-phase series. Where the phase holds at
// least three windows of about 300 samples each, it is the median of
// the windows' p99s, so that a burst of interference from outside the
// benchmark in one window does not decide the figure; otherwise it is
// the p99 of all samples.
func tail(s *sampler, name string, start time.Time, d time.Duration) float64 {
	rate := float64(len(s.series[name])) / d.Seconds()
	w := time.Duration(math.Ceil(300/rate)) * time.Second
	if d < 3*w {
		return percentile(s.series[name], 0.99)
	}
	return s.windowed(name, start, w, 0.99, 100)
}

func (b *bench) mainFigures(s *sampler, start time.Time, d time.Duration) {
	for _, name := range []string{"read_us", "open_us", "lag_us", "gen.late_us"} {
		b.series[name] = s.series[name]
	}
	tails := map[string]map[string]float64{}
	for _, name := range []string{"read_us", "read_rtt_us", "write_us", "gen.late_us", "scrape_us"} {
		xs := append([]float64(nil), s.series[name]...)
		if len(xs) == 0 {
			continue
		}
		tails[name] = map[string]float64{}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
			tails[name][fmt.Sprintf("p%g", q*100)] = percentile(xs, q)
		}
	}
	b.info["main_phase_tails"] = tails
	b.values["read_p50_us"] = median(s.series["read_us"])
	b.values["read_p99_us"] = tail(s, "read_us", start, d)
	b.values["open_p50_us"] = median(s.series["open_us"])
	if b.spec.writeRate > 0 {
		b.writeFigures(s, start, d)
	}
	if b.spec.followerAtSetup {
		b.lagFigures(s)
	}
}

func (b *bench) writeFigures(s *sampler, start time.Time, d time.Duration) {
	b.series["write_us"] = s.series["write_us"]
	b.values["write_p50_us"] = median(s.series["write_us"])
	b.values["write_p99_us"] = tail(s, "write_us", start, d)
}

func (b *bench) lagFigures(s *sampler) {
	b.series["lag_us"] = s.series["lag_us"]
	b.info["lag_tails_us"] = map[string]float64{"p50": median(s.series["lag_us"]), "p90": percentile(s.series["lag_us"], 0.9), "max": percentile(s.series["lag_us"], 1)}
	b.values["lag_p50_us"] = median(s.series["lag_us"])
	b.values["lag_p99_us"] = percentile(s.series["lag_us"], 0.99)
}

// counterFigures turns counter deltas over the untraced half of the
// main phase into the cqa, core and wal ratios.
func (b *bench) counterFigures(c0, c1 counters, st phaseStats) {
	pruned, full := float64(c1.q.pruned-c0.q.pruned), float64(c1.q.full-c0.q.full)
	direct, fallback := float64(c1.q.direct-c0.q.direct), float64(c1.q.fallback-c0.q.fallback)
	hits, misses := float64(c1.hits-c0.hits), float64(c1.misses-c0.misses)
	b.values["cqa.pruned_share"] = ratio(pruned, pruned+full)
	b.values["cqa.open_direct_share"] = ratio(direct, direct+fallback)
	// Closed checks beyond one per closed read are the per-candidate
	// verifications of open queries.
	b.values["cqa.checks_per_open"] = ratio(pruned+full-float64(st.closedReads), float64(st.opens))
	b.values["core.memo_hit_rate"] = ratio(hits, hits+misses)
	if grew := c1.walBytes - c0.walBytes; grew > 0 && st.writes > 0 {
		b.values["wal.bytes_per_write"] = float64(grew) / float64(st.writes)
	}
	for k, v := range map[string]float64{
		"closed_pruned": pruned, "closed_full": full, "open_direct": direct, "open_fallback": fallback,
		"memo_hits": hits, "memo_misses": misses, "wal_bytes": float64(c1.walBytes - c0.walBytes),
		"reads": float64(st.reads), "writes": float64(st.writes), "opens": float64(st.opens),
	} {
		b.tr.count("main_untraced."+k, v)
	}
}

// openLoopPhase runs the reader and the writer connection for d.
// Traced (tr set), it records each read's round trip as a span and
// keeps the first reads for replay, and lag probes are split into
// shipping and wake-up.
func (b *bench) openLoopPhase(d time.Duration, tr *traced) (*sampler, phaseStats, error) {
	ctx := context.Background()
	traced := tr != nil
	var st phaseStats
	rs, ws := newSampler(), newSampler()
	start := time.Now().Add(20 * time.Millisecond)
	st.start = start
	var wg sync.WaitGroup
	var rerr, werr error
	seen := map[string]bool{}
	repeats := 0
	scrapeEvery := 0
	if b.spec.scrapeRate > 0 {
		scrapeEvery = int(b.spec.readRate / b.spec.scrapeRate)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cn := b.newConn()
		defer cn.close()
		g := b.newGen(0)
		if traced {
			g = b.newGen(1)
		}
		n := int(b.spec.readRate * d.Seconds())
		rerr = openLoop(start, n, b.spec.readRate, rs, func(i int, due time.Time) {
			// A scrape takes two slots, so it rarely delays the read
			// after it.
			switch {
			case scrapeEvery == 0:
			case i%scrapeEvery == scrapeEvery-2:
				_, err := cn.primary.Stats(ctx)
				rs.outcome(err)
				rs.add("scrape_us", us(time.Since(due)))
				return
			case i%scrapeEvery == scrapeEvery-1:
				return
			}
			r := b.w.read(b, g)
			sent := time.Now()
			resp, err := r.send(ctx, cn)
			ret := time.Now()
			if err == nil {
				err = r.check(resp, sent, ret)
			}
			rs.outcome(err)
			lat := us(ret.Sub(due))
			rs.add("read_us", lat)
			rs.add("read_rtt_us", us(ret.Sub(sent)))
			st.reads++
			switch r.kind {
			case kOpen:
				rs.add("open_us", lat)
				st.opens++
			case kPoint, kQuant, kJoin:
				st.closedReads++
			}
			key := r.fam.String() + "|" + r.text
			if seen[key] {
				repeats++
			}
			seen[key] = true
			if traced && len(tr.reads) < replays {
				req := b.tr.newReq()
				b.tr.record("client.request", 0, req, sent, ret)
				tr.reads = append(tr.reads, tracedRead{r: r, req: req, rtt: ret.Sub(sent)})
			}
		})
	}()
	if b.spec.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := b.newConn()
			defer cn.close()
			n := int(b.spec.writeRate * d.Seconds())
			werr = openLoop(start, n, b.spec.writeRate, ws, func(i int, due time.Time) {
				acked, v, probe, err := b.w.write(ctx, b, httpWriter{cn.primary}, due, ws)
				ws.attempted += acked
				if err != nil {
					ws.outcome(err)
					return
				}
				st.writes += acked
				if traced {
					b.tracedUnits++
				}
				if b.spec.followerAtSetup {
					b.lagProbe(ctx, cn, time.Now(), v, probe, ws, traced)
				}
			})
		}()
	}
	wg.Wait()
	if rerr != nil {
		return nil, st, rerr
	}
	if werr != nil {
		return nil, st, werr
	}
	if st.reads+st.writes > 0 {
		st.readShare = float64(st.reads) / float64(st.reads+st.writes)
	}
	st.repeatShare = ratio(float64(repeats), float64(st.reads))
	rs.merge(ws)
	b.all.merge(rs)
	return rs, st, nil
}

// lagProbe reads a write acked at ack back through the follower with
// min_version and records the time from the ack until the read
// returns. Traced, it also polls the follower's write-version to split
// that time into shipping (ack until the follower's log covers the
// write) and wake-up (covered until the parked read returns).
func (b *bench) lagProbe(ctx context.Context, cn *conn, ack time.Time, v uint64, probe *readReq, s *sampler, traced bool) {
	var covered time.Time
	stop := make(chan struct{})
	var poll sync.WaitGroup
	if traced {
		fdb, err := b.follower.replicaDB()
		if err != nil {
			s.outcome(err)
			return
		}
		poll.Add(1)
		go func() {
			defer poll.Done()
			for fdb.WriteVersion() < v {
				select {
				case <-stop:
					return
				case <-time.After(20 * time.Microsecond):
				}
			}
			covered = time.Now()
		}()
	}
	resp, err := probe.send(ctx, cn)
	ret := time.Now()
	close(stop)
	poll.Wait()
	if err == nil {
		err = probe.check(resp, ack, ret)
	}
	s.outcome(err)
	s.add("lag_us", us(ret.Sub(ack)))
	if traced && !covered.IsZero() {
		req := b.tr.newReq()
		b.tr.record("replication.ship", 0, req, ack, covered)
		b.tr.record("replication.wake", 0, req, covered, ret)
	}
}

// probePhase attaches a follower to a workload that has none and
// runs the writer alone at the probe-phase rate. The reader
// connection, idle otherwise, reads writes back through the follower:
// a lag probe follows each write acked while no probe is in flight, so
// the writer keeps its schedule however long a probe takes. The
// follower is detached at the end. On a workload whose main phase is
// read-only, these writes also give the write figures.
func (b *bench) probePhase(d time.Duration) error {
	if err := b.attachFollower(b.runDir("probe")); err != nil {
		return err
	}
	ctx := context.Background()
	ws, ps := newSampler(), newSampler()
	wcn, pcn := b.newConn(), b.newConn()
	type probeReq struct {
		ack   time.Time
		v     uint64
		probe *readReq
	}
	probes := make(chan probeReq, 1)
	var busy atomic.Bool
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		for p := range probes {
			b.lagProbe(ctx, pcn, p.ack, p.v, p.probe, ps, b.cfg.trace)
			busy.Store(false)
		}
	}()
	n := int(b.spec.probeRate * d.Seconds())
	start := time.Now().Add(20 * time.Millisecond)
	err := openLoop(start, n, b.spec.probeRate, ws, func(i int, due time.Time) {
		acked, v, probe, err := b.w.write(ctx, b, httpWriter{wcn.primary}, due, ws)
		ws.attempted += acked
		if err != nil {
			ws.outcome(err)
			return
		}
		if b.cfg.trace {
			b.tracedUnits++
		}
		if busy.CompareAndSwap(false, true) {
			probes <- probeReq{ack: time.Now(), v: v, probe: probe}
		}
	})
	close(probes)
	pwg.Wait()
	wcn.close()
	pcn.close()
	if err != nil {
		return err
	}
	ws.merge(ps)
	b.all.merge(ws)
	b.lagFigures(ws)
	if b.spec.writeRate == 0 {
		b.writeFigures(ws, start, d)
	}
	return b.detachFollower()
}

// readCapacity runs the workload's reads closed-loop on closedConns
// connections.
func (b *bench) readCapacity(d time.Duration) {
	ctx := context.Background()
	conns := make([]*conn, closedConns)
	gens := make([]*gen, closedConns)
	for i := range conns {
		conns[i], gens[i] = b.newConn(), b.newGen(10+i)
	}
	rates, s := closedLoop(d, closedConns, func(c, _ int, _ *sampler) (int, error) {
		r := b.w.read(b, gens[c])
		sent := time.Now()
		resp, err := r.send(ctx, conns[c])
		if err == nil {
			err = r.check(resp, sent, time.Now())
		}
		if err != nil {
			return 0, err
		}
		return 1, nil
	})
	for _, cn := range conns {
		cn.close()
	}
	b.all.merge(s)
	b.series["read_qps.windows"] = rates
	b.values["read_qps"] = median(rates)
}

// writeCapacity restarts the primary on its data directory and runs
// the workload's write units closed-loop on closedConns connections;
// write_qps counts acked writes.
func (b *bench) writeCapacity(d time.Duration) error {
	var err error
	if b.primary, err = startNode(b.primaryDir(), ""); err != nil {
		return err
	}
	ctx := context.Background()
	conns := make([]*conn, closedConns)
	for i := range conns {
		conns[i] = b.newConn()
	}
	rates, s := closedLoop(d, closedConns, func(c, _ int, s *sampler) (int, error) {
		acked, _, _, err := b.w.write(ctx, b, httpWriter{conns[c].primary}, time.Now(), newSampler())
		return acked, err
	})
	for _, cn := range conns {
		cn.close()
	}
	b.all.merge(s)
	b.series["write_qps.windows"] = rates
	b.values["write_qps"] = median(rates)
	b.info["write_capacity_requests"] = s.attempted
	if st, err := b.primaryStats(); err == nil {
		b.info["wal_after_write_capacity"] = st.WAL
	}
	return b.teardown()
}

// recovery restarts the primary on its data directory and times it
// until one checked read has returned through its socket: the
// downtime of a restart. recovery_s is the median over several
// restarts.
func (b *bench) recovery() error {
	ctx, cancel := shortCtx()
	defer cancel()
	g := b.newGen(200)
	var times []float64
	for i := 0; i < recoveries; i++ {
		t := time.Now()
		n, err := startNode(b.primaryDir(), "")
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		cn := newConn(n.url, "")
		err = b.checkedRead(ctx, b.w.counts().read(g, false, 0), cn)
		elapsed := time.Since(t)
		cn.close()
		b.all.outcome(err)
		if serr := n.stop(); serr != nil {
			return fmt.Errorf("recovery: %w", serr)
		}
		times = append(times, elapsed.Seconds())
	}
	b.series["recovery_s"] = times
	b.values["recovery_s"] = median(times)
	return nil
}

// layerReplays times, from the benchmark, the public calls each layer
// offers: the traced reads again through the server's handler with an
// in-memory recorder, the facade and the parser; stats scrapes; the
// traced phase's WAL records into a standalone log and through the
// replication apply path.
func (b *bench) layerReplays() error {
	tr := b.pending
	ctx := context.Background()
	db, srv, err := b.readDB()
	if err != nil {
		return err
	}
	snap, err := db.Snapshot()
	if err != nil {
		return err
	}
	for _, x := range tr.reads {
		root := b.tr.open("replay", 0, x.req)
		var handler time.Duration
		err := b.tr.timed("server.handler", root.id(), x.req, func() error {
			t := time.Now()
			_, err := x.r.serveInMemory(srv.Handler())
			handler = time.Since(t)
			return err
		})
		if err == nil {
			err = b.tr.timed("prefcqa."+kindNames[x.r.kind], root.id(), x.req, func() error {
				_, err := x.r.facadeRead(ctx, snap)
				return err
			})
		}
		if err == nil && x.r.kind != kCount {
			err = b.tr.timed("query.parse", root.id(), x.req, func() error {
				_, err := query.Parse(x.r.text)
				return err
			})
		}
		root.end()
		if err != nil {
			return fmt.Errorf("replay of %q: %w", x.r.text, err)
		}
		b.series["client.transport_us"] = append(b.series["client.transport_us"], us(x.rtt-handler))
	}
	// The traced write units again, through the facade on the
	// primary, each followed by the snapshot the next read would take.
	fw := facadeWriter{db: b.pdb, tr: b.tr}
	for i := 0; i < b.tracedUnits; i++ {
		if _, _, _, err := b.w.write(ctx, b, fw, time.Now(), newSampler()); err != nil {
			return fmt.Errorf("facade write: %w", err)
		}
		if err := b.tr.timed("prefcqa.snapshot", 0, b.tr.newReq(), func() error {
			_, err := b.pdb.Snapshot()
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		if err := b.tr.timed("server.stats", 0, b.tr.newReq(), func() error {
			rec := httptest.NewRecorder()
			b.primary.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, client.PathStats, nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("stats: HTTP %d", rec.Code)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return b.walReplays(tr)
}

// walReplays feeds the primary's records since the traced half began
// into a fresh standalone wal.Log under the run's fsync policy, and
// through ReplApply / ReplCommit on a fresh durable DB bootstrapped at
// the half's starting state.
func (b *bench) walReplays(tr *traced) error {
	var recs []wal.Record
	for from := tr.v0 + 1; from <= b.pdb.WriteVersion(); {
		batch, err := b.pdb.ReplReadFrom(from, 1024)
		if err != nil {
			return fmt.Errorf("read traced records: %w", err)
		}
		if len(batch) == 0 {
			break
		}
		recs = append(recs, batch...)
		from = batch[len(batch)-1].Seq + 1
	}
	if len(recs) == 0 {
		return fmt.Errorf("no records were logged since the traced half began")
	}
	log, _, _, err := wal.Open(b.runDir("wal-replay"), wal.Options{Policy: fsync})
	if err != nil {
		return err
	}
	var bytes int64
	for _, rec := range recs {
		rec.Seq, rec.Epoch = 0, 0
		req := b.tr.newReq()
		var seq uint64
		if err := b.tr.timed("wal.append", 0, req, func() (err error) {
			seq, err = log.Append(rec)
			return err
		}); err != nil {
			log.Close()
			return err
		}
		if err := b.tr.timed("wal.sync", 0, req, func() error { return log.Sync(seq) }); err != nil {
			log.Close()
			return err
		}
	}
	bytes = log.Stats().SegmentBytes
	if err := log.Close(); err != nil {
		return err
	}
	if _, ok := b.values["wal.bytes_per_write"]; !ok {
		// The primary checkpointed during the phase: fall back to the
		// replayed log's size.
		b.values["wal.bytes_per_write"] = float64(bytes) / float64(len(recs))
	}

	rdb, err := prefcqa.Open(b.runDir("repl-replay"), prefcqa.WithSyncPolicy(fsync))
	if err != nil {
		return err
	}
	defer rdb.Close()
	if err := rdb.ReplBootstrap(tr.ckpt); err != nil {
		return fmt.Errorf("bootstrap replay db: %w", err)
	}
	for i, rec := range recs {
		req := b.tr.newReq()
		if err := b.tr.timed("replication.apply", 0, req, func() error { return rdb.ReplApply(rec) }); err != nil {
			return err
		}
		if (i+1)%64 == 0 || i == len(recs)-1 {
			if err := b.tr.timed("replication.commit", 0, req, func() error { return rdb.ReplCommit(rec.Seq) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceMetrics reports each layer's median self time.
func (b *bench) traceMetrics() {
	self := b.tr.selfTimes()
	for _, name := range []string{
		"server.handler", "server.stats", "prefcqa.snapshot",
		"prefcqa.point", "prefcqa.quant", "prefcqa.join", "prefcqa.count", "prefcqa.open",
		"prefcqa.write", "query.parse", "wal.append", "wal.sync",
		"replication.ship", "replication.wake", "replication.apply", "replication.commit",
	} {
		b.series[name+"_us"] = self[name]
		if len(self[name]) > 0 {
			b.values[name+"_us"] = median(self[name])
		}
	}
	b.series["replay.self_us"] = self["replay"]
	b.values["client.transport_us"] = median(b.series["client.transport_us"])
	if bs := b.series["replication.bootstrap_s"]; len(bs) > 0 {
		b.values["replication.bootstrap_s"] = median(bs)
	}
}
