package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"prefcqa"
	"prefcqa/client"
)

// workload is one traffic mix over one generated data set.
type workload interface {
	// generate draws the data set and the query pool from the seed,
	// once per run.
	generate(b *bench)
	// load creates the schema and sends the generated data to a server
	// over HTTP. It returns the write-version of its last write.
	load(ctx context.Context, c *client.Client) (uint64, error)
	// warm computes, through the in-process facade on a snapshot of
	// the loaded data, every answer a read can be checked against.
	warm(ctx context.Context, snap *prefcqa.Snapshot) error
	// read draws the next read of a generator.
	read(b *bench, g *gen) *readReq
	// write performs one write unit on w and records its latency, from
	// `from` (the unit's due time) to its last ack, into s as
	// "write_us". It returns the number of acked write requests, the
	// last write-version and a follower read that observes the unit's
	// effect.
	write(ctx context.Context, b *bench, w writer, from time.Time, s *sampler) (int, uint64, *readReq, error)
	// multiChoice is the number of G-Rep components with more than
	// one choice in the generated data.
	multiChoice() int
	// counts is the expected repair counts of the Dept relation.
	counts() *deptCounts
}

// spec is a workload's traffic shape.
type spec struct {
	new func() workload
	// readRate and writeRate are the open-loop rates (per second) of
	// the reader and the writer connection in the main phase. A
	// writeRate of 0 leaves the main phase read-only.
	readRate, writeRate float64
	// scrapeRate is the rate of /v1/stats scrapes, which take reader
	// slots (0: none).
	scrapeRate float64
	// probeRate is the writer's rate in the lag-probe phase of a
	// workload without a follower from the start; with
	// followerAtSetup the main phase's writes are the probes.
	probeRate       float64
	followerAtSetup bool
	// weights of the read kinds (point, quant, join, open, count).
	weights [nKinds]float64
	// shares of --seconds given to the main, lag-probe, read-capacity
	// and write-capacity phases.
	shares [4]float64
}

// The offered rates follow rules applied to this benchmark's own
// capacity figures on the reference host (METRICS.md, "Offered
// rates"); they are rounded down to two significant digits.
//
//   - A reader connection is offered a tenth of what one connection
//     completes closed-loop with the same reads: read_qps/20. At
//     utilisation 0.1 a queue adds about 6% of a service time, so the
//     open-loop latencies are service times, not queueing.
//   - A writer connection is offered 2% of what one connection
//     completes closed-loop: write_qps/100 requests (a churn_rw update
//     batch is three). A write waits for its fsync, and fsync times on
//     a shared disk vary several-fold; at a tenth, churn_rw's writer
//     fell behind its schedule on four seeds of five.
//   - On follower_read every write is a lag probe that holds the
//     writer until its read returns (analyst_read and churn_rw probe
//     from the idle reader connection instead). The probe period is at
//     least 1.5 times the lag p99 of a traced run, so the writer keeps
//     its schedule.
//
// The stats scrape is one per second, the default collection interval
// of Netdata's agent.
var specs = map[string]spec{
	"analyst_read": {
		new: func() workload { return &analyst{persons: 25000, poolSize: 1000} },
		// read_qps 3,260: 163/s. write_qps 16,700: 167/s.
		readRate: 160, probeRate: 160,
		weights: [nKinds]float64{0.35, 0.25, 0.2, 0.1, 0.1},
		shares:  [4]float64{0.4, 0.2, 0.2, 0.2},
	},
	"churn_rw": {
		new: func() workload { return &kv{keys: 10000, churn: true} },
		// read_qps 16,500: 825/s. write_qps 17,600: 176 requests, 58
		// update batches/s.
		readRate: 820, writeRate: 58, scrapeRate: 1, probeRate: 58,
		weights: [nKinds]float64{0.8, 0.05, 0.05, 0.05, 0.05},
		shares:  [4]float64{0.45, 0.2, 0.175, 0.175},
	},
	"follower_read": {
		new: func() workload { return &kv{keys: 10000} },
		// read_qps 19,000: 950/s. Lag p99 119 ms: at most 5.6 writes/s.
		readRate: 950, writeRate: 5, followerAtSetup: true,
		weights: [nKinds]float64{0.8, 0.05, 0.05, 0.05, 0.05},
		shares:  [4]float64{0.65, 0, 0.175, 0.175},
	},
}

// gen is one connection's request generator.
type gen struct {
	id  int
	n   int
	rng *rand.Rand
	// zipf draws analyst_read pool entries, per read kind.
	zipf [nKinds]*rand.Zipf
}

func (b *bench) newGen(id int) *gen {
	rng := rand.New(rand.NewSource(b.cfg.seed*7919 + int64(id)))
	return &gen{id: id, rng: rng}
}

func (g *gen) kind(w [nKinds]float64) int {
	x := g.rng.Float64()
	for k := 0; k < nKinds; k++ {
		if x < w[k] {
			return k
		}
		x -= w[k]
	}
	return kPoint
}

func (g *gen) family() prefcqa.Family {
	return prefcqa.Family(g.rng.Intn(5))
}

// writer performs writes over HTTP or through the in-process facade.
type writer interface {
	insert(ctx context.Context, rel string, vals ...any) (id int, ver uint64, err error)
	prefer(ctx context.Context, rel string, x, y int) (uint64, error)
	del(ctx context.Context, rel string, id int) (uint64, error)
}

type httpWriter struct{ c *client.Client }

func (w httpWriter) insert(ctx context.Context, rel string, vals ...any) (int, uint64, error) {
	tup, err := prefcqa.MakeTuple(vals...)
	if err != nil {
		return 0, 0, err
	}
	ids, v, err := w.c.Insert(ctx, dbName, rel, tup)
	if err != nil {
		return 0, 0, err
	}
	if len(ids) != 1 {
		return 0, 0, fmt.Errorf("insert returned %d ids", len(ids))
	}
	return ids[0], v, nil
}

func (w httpWriter) prefer(ctx context.Context, rel string, x, y int) (uint64, error) {
	return w.c.Prefer(ctx, dbName, rel, [2]int{x, y})
}

func (w httpWriter) del(ctx context.Context, rel string, id int) (uint64, error) {
	n, v, err := w.c.Delete(ctx, dbName, rel, id)
	if err == nil && n != 1 {
		err = fmt.Errorf("delete of %d removed %d tuples", id, n)
	}
	return v, err
}

// facadeWriter applies the same writes to the primary's in-process
// durable DB, bypassing HTTP, each inside a "prefcqa.write" span.
type facadeWriter struct {
	db *prefcqa.DB
	tr *tracer
}

func (w facadeWriter) rel(name string) (*prefcqa.Relation, error) {
	r, ok := w.db.Relation(name)
	if !ok {
		return nil, fmt.Errorf("no relation %s", name)
	}
	return r, nil
}

func (w facadeWriter) insert(_ context.Context, rel string, vals ...any) (int, uint64, error) {
	r, err := w.rel(rel)
	if err != nil {
		return 0, 0, err
	}
	var id prefcqa.TupleID
	err = w.tr.timed("prefcqa.write", 0, w.tr.newReq(), func() (err error) {
		id, err = r.Insert(vals...)
		return err
	})
	return int(id), w.db.WriteVersion(), err
}

func (w facadeWriter) prefer(_ context.Context, rel string, x, y int) (uint64, error) {
	r, err := w.rel(rel)
	if err != nil {
		return 0, err
	}
	err = w.tr.timed("prefcqa.write", 0, w.tr.newReq(), func() error {
		return r.Prefer(prefcqa.TupleID(x), prefcqa.TupleID(y))
	})
	return w.db.WriteVersion(), err
}

func (w facadeWriter) del(_ context.Context, rel string, id int) (uint64, error) {
	r, err := w.rel(rel)
	if err != nil {
		return 0, err
	}
	var ok bool
	err = w.tr.timed("prefcqa.write", 0, w.tr.newReq(), func() (err error) {
		ok, err = r.Delete(prefcqa.TupleID(id))
		return err
	})
	if err == nil && !ok {
		err = fmt.Errorf("delete of %d removed nothing", id)
	}
	return w.db.WriteVersion(), err
}

// --- the small Dept relation every workload counts repairs of --------

// deptCounts holds the expected Dept repair count per family.
type deptCounts [5]int64

// deptData is Dept(DName, Budget) with FD DName -> Budget: 20
// departments, 8 of them with two or three conflicting budgets, some
// pairs ordered. Its repair counts stay small under every family.
type deptData struct {
	rows  []prefcqa.Tuple
	pairs [][2]int // row indexes, winner first
}

func genDept(rng *rand.Rand) deptData {
	var d deptData
	for dept := 0; dept < 20; dept++ {
		n := 1
		if dept < 2 {
			n = 3
		} else if dept < 8 {
			n = 2
		}
		first := len(d.rows)
		for v := 0; v < n; v++ {
			t, _ := prefcqa.MakeTuple(deptName(dept), 100+10*dept+v)
			if v > 0 && rng.Intn(2) == 0 {
				d.pairs = append(d.pairs, [2]int{first, len(d.rows)})
			}
			d.rows = append(d.rows, t)
		}
	}
	return d
}

// loadRelation creates a relation (with an FD unless fd is empty),
// inserts rows in batches, then records the preference pairs (row
// indexes). It returns the inserted IDs and the last write-version.
func loadRelation(ctx context.Context, c *client.Client, name, fd string, attrs []prefcqa.WireAttr, rows []prefcqa.Tuple, pairs [][2]int) ([]int, uint64, error) {
	v, err := c.CreateRelation(ctx, dbName, name, attrs...)
	if err != nil {
		return nil, 0, err
	}
	if fd != "" {
		if v, err = c.AddFD(ctx, dbName, name, fd); err != nil {
			return nil, 0, err
		}
	}
	const batch = 4000
	ids := make([]int, 0, len(rows))
	for lo := 0; lo < len(rows); lo += batch {
		got, ver, err := c.Insert(ctx, dbName, name, rows[lo:min(lo+batch, len(rows))]...)
		if err != nil {
			return nil, 0, err
		}
		ids, v = append(ids, got...), ver
	}
	for lo := 0; lo < len(pairs); lo += batch {
		idPairs := make([][2]int, 0, batch)
		for _, p := range pairs[lo:min(lo+batch, len(pairs))] {
			idPairs = append(idPairs, [2]int{ids[p[0]], ids[p[1]]})
		}
		if v, err = c.Prefer(ctx, dbName, name, idPairs...); err != nil {
			return nil, 0, err
		}
	}
	return ids, v, nil
}

func (d deptData) load(ctx context.Context, c *client.Client) (uint64, error) {
	_, v, err := loadRelation(ctx, c, "Dept", "DName -> Budget",
		[]prefcqa.WireAttr{client.NameAttr("DName"), client.IntAttr("Budget")}, d.rows, d.pairs)
	return v, err
}

func deptName(d int) string { return fmt.Sprintf("d%02d", d) }

func (dc *deptCounts) warm(ctx context.Context, snap *prefcqa.Snapshot) error {
	for f := range dc {
		n, err := snap.CountRepairsContext(ctx, prefcqa.Family(f), "Dept")
		if err != nil {
			return err
		}
		dc[f] = n
	}
	return nil
}

func (dc *deptCounts) read(g *gen, follower bool, minVer uint64) *readReq {
	f := g.family()
	want := &readResp{count: dc[f]}
	return &readReq{kind: kCount, fam: f, text: "Dept", follower: follower, minVer: minVer, check: expectExact(want)}
}

// --- analyst_read -------------------------------------------------------

// analyst is the paper's Example 1 at scale: Emp(Name, Dept, Salary)
// merged from three ranked sources under FD Name -> Dept, Salary.
// About 70% of conflicting pairs are ordered by source rank, so
// undetermined multi-choice components remain. Reads are drawn
// Zipf-skewed from a fixed pool of query texts over all five families.
type analyst struct {
	persons, poolSize int
	versions          [][]empVersion
	rows              []prefcqa.Tuple
	pairs             [][2]int // row indexes, winner first
	deptData          deptData
	pool              [nKinds][]*readReq
	dept              deptCounts
	multi             int
	audit             atomic.Int64
}

type empVersion struct {
	dept string
	sal  int
}

func (a *analyst) multiChoice() int { return a.multi }

func (a *analyst) counts() *deptCounts { return &a.dept }

func (a *analyst) generate(b *bench) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	a.deptData = genDept(rng)
	a.versions = make([][]empVersion, a.persons)
	for p := 0; p < a.persons; p++ {
		n := 1
		switch x := rng.Float64(); {
		case x < 0.15:
			n = 3
		case x < 0.60:
			n = 2
		}
		vs := make([]empVersion, 0, n)
		rank := make([]int, 0, n)
		for len(vs) < n {
			v := empVersion{dept: deptName(rng.Intn(20)), sal: 30 + rng.Intn(121)}
			if len(vs) > 0 && rng.Intn(2) == 0 {
				v.dept = vs[0].dept // a salary-only disagreement
			}
			dup := false
			for _, o := range vs {
				dup = dup || o == v
			}
			if !dup {
				vs = append(vs, v)
				rank = append(rank, rng.Intn(3))
			}
		}
		a.versions[p] = vs
		base := len(a.rows)
		for _, v := range vs {
			t, _ := prefcqa.MakeTuple(personName(p), v.dept, v.sal)
			a.rows = append(a.rows, t)
		}
		// Orient ~70% of the conflicting pairs along one total order
		// (source rank, then version), which keeps priorities acyclic.
		dominated := make([]bool, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() >= 0.7 {
					continue
				}
				w, l := i, j
				if rank[j] < rank[i] {
					w, l = j, i
				}
				a.pairs = append(a.pairs, [2]int{base + w, base + l})
				dominated[l] = true
			}
		}
		undominated := 0
		for _, d := range dominated {
			if !d {
				undominated++
			}
		}
		if undominated > 1 {
			a.multi++
		}
	}
	a.buildPool(b, rng)
}

func (a *analyst) load(ctx context.Context, c *client.Client) (uint64, error) {
	if _, err := a.deptData.load(ctx, c); err != nil {
		return 0, err
	}
	if _, err := c.CreateRelation(ctx, dbName, "Audit", client.IntAttr("K"), client.IntAttr("V")); err != nil {
		return 0, err
	}
	_, v, err := loadRelation(ctx, c, "Emp", "Name -> Dept, Salary",
		[]prefcqa.WireAttr{client.NameAttr("Name"), client.NameAttr("Dept"), client.IntAttr("Salary")}, a.rows, a.pairs)
	return v, err
}

func personName(p int) string { return fmt.Sprintf("p%05d", p) }

// buildPool draws the fixed pool of query texts, one sub-pool per
// read kind sized by the kind's weight. Entry i of a sub-pool asks
// under family i mod 5, so the Zipf head covers every family whatever
// the seed; the seed only picks the persons, departments and
// thresholds. Expected answers are filled in by warm.
func (a *analyst) buildPool(b *bench, rng *rand.Rand) {
	for kind := range a.pool {
		n := max(int(b.spec.weights[kind]*float64(a.poolSize)), 10)
		a.pool[kind] = a.pool[kind][:0]
		for i := 0; i < n; i++ {
			r := &readReq{kind: kind, fam: prefcqa.Family(i % 5)}
			p := rng.Intn(a.persons)
			vs := a.versions[p]
			switch kind {
			case kPoint:
				v := vs[rng.Intn(len(vs))]
				if rng.Intn(5) == 0 {
					v.sal++ // mostly absent: a false or undetermined check
				}
				r.text = fmt.Sprintf("Emp('%s', '%s', %d)", personName(p), v.dept, v.sal)
			case kQuant:
				r.text = fmt.Sprintf("EXISTS d, s . Emp('%s', d, s) AND s > %d", personName(p), 30+rng.Intn(121))
			case kJoin:
				q := rng.Intn(a.persons)
				r.text = fmt.Sprintf("EXISTS d1, s1, d2, s2 . Emp('%s', d1, s1) AND Emp('%s', d2, s2) AND s1 > s2", personName(p), personName(q))
			case kOpen:
				// One threshold for all: every department has about as
				// many candidates, so the cost does not hang on the seed.
				r.text = fmt.Sprintf("EXISTS s . Emp(n, '%s', s) AND s > 144", deptName(rng.Intn(20)))
			case kCount:
				r.text = "Dept"
			}
			a.pool[kind] = append(a.pool[kind], r)
		}
	}
}

func (a *analyst) warm(ctx context.Context, snap *prefcqa.Snapshot) error {
	if err := a.dept.warm(ctx, snap); err != nil {
		return err
	}
	for _, sub := range a.pool {
		for _, r := range sub {
			want, err := r.facadeRead(ctx, snap)
			if err != nil {
				return fmt.Errorf("expected answer of %q: %w", r.text, err)
			}
			r.check = expectExact(want)
		}
	}
	return nil
}

// read draws the kind by its weight, then a text of that kind
// Zipf-skewed from its sub-pool.
func (a *analyst) read(b *bench, g *gen) *readReq {
	kind := g.kind(b.spec.weights)
	if g.zipf[kind] == nil {
		g.zipf[kind] = rand.NewZipf(g.rng, 1.1, 8, uint64(len(a.pool[kind])-1))
	}
	return a.pool[kind][g.zipf[kind].Uint64()]
}

// write appends one row to the conflict-free Audit relation: a small
// durable write that leaves Emp and its built state untouched. The
// main phase is read-only; the lag-probe and write-capacity phases
// write.
func (a *analyst) write(ctx context.Context, b *bench, w writer, from time.Time, s *sampler) (int, uint64, *readReq, error) {
	k := a.audit.Add(1)
	_, v, err := w.insert(ctx, "Audit", k, 7)
	if err != nil {
		return 0, 0, nil, err
	}
	s.add("write_us", us(time.Since(from)))
	probe := &readReq{kind: kPoint, fam: prefcqa.Global, text: fmt.Sprintf("Audit(%d, 7)", k), follower: true, minVer: v,
		check: expectExact(&readResp{answer: prefcqa.True.String()})}
	return 1, v, probe, nil
}

// --- churn_rw and follower_read ----------------------------------------

// kv is R(K, V) under FD K -> V in two-tuple clusters: an anchor
// (k, 0) preferred over a loser (k, 1+k). With churn, the writer
// replaces a key's loser generation by a single-tuple update batch
// (insert, prefer the anchor over it, delete the old loser) and the
// reader reads the churned keys with texts it never repeats. Without
// churn (follower_read), writes add fresh keys and reads go to the
// follower at the preload's version.
type kv struct {
	keys  int
	churn bool

	anchor, loser []int
	perm          []int
	deptData      deptData
	cursor        atomic.Int64 // next write unit
	dept          deptCounts

	mu  sync.Mutex
	win map[int]*[2]window // the last two update windows per key
}

// window spans one update batch from sending its insert to the ack of
// its prefer: while it is open the key is correctly undetermined.
type window struct{ start, end time.Time }

func (k *kv) multiChoice() int { return 0 }

func (k *kv) counts() *deptCounts { return &k.dept }

// generate also allocates the per-key ID arrays, so that load adds
// nothing of the benchmark's own to the heap a set-up measures.
func (k *kv) generate(b *bench) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	k.deptData = genDept(rng)
	k.perm = rng.Perm(k.keys)
	k.anchor = make([]int, k.keys)
	k.loser = make([]int, k.keys)
}

func (k *kv) load(ctx context.Context, c *client.Client) (uint64, error) {
	if _, err := k.deptData.load(ctx, c); err != nil {
		return 0, err
	}
	rows := make([]prefcqa.Tuple, 0, 2*k.keys)
	pairs := make([][2]int, 0, k.keys)
	for key := 0; key < k.keys; key++ {
		a, _ := prefcqa.MakeTuple(key, 0)
		l, _ := prefcqa.MakeTuple(key, 1+key)
		pairs = append(pairs, [2]int{len(rows), len(rows) + 1})
		rows = append(rows, a, l)
	}
	ids, v, err := loadRelation(ctx, c, "R", "K -> V", []prefcqa.WireAttr{client.IntAttr("K"), client.IntAttr("V")}, rows, pairs)
	if err != nil {
		return 0, err
	}
	for key := range k.anchor {
		k.anchor[key], k.loser[key] = ids[2*key], ids[2*key+1]
	}
	k.cursor.Store(0)
	k.win = map[int]*[2]window{}
	return v, nil
}

func (k *kv) warm(ctx context.Context, snap *prefcqa.Snapshot) error {
	return k.dept.warm(ctx, snap)
}

// overlaps reports whether any update window of key overlapped the
// interval [sent, ret].
func (k *kv) overlaps(key int, sent, ret time.Time) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	w := k.win[key]
	if w == nil {
		return false
	}
	for _, x := range w {
		if !x.start.IsZero() && x.start.Before(ret) && (x.end.IsZero() || x.end.After(sent)) {
			return true
		}
	}
	return false
}

func (k *kv) openWindow(key int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	w := k.win[key]
	if w == nil {
		w = &[2]window{}
		k.win[key] = w
	}
	w[0], w[1] = w[1], window{start: time.Now()}
}

func (k *kv) closeWindow(key int) {
	k.mu.Lock()
	k.win[key][1].end = time.Now()
	k.mu.Unlock()
}

// readKey picks the key a read targets: a key the main phase churns,
// or any preloaded key without churn.
func (k *kv) readKey(b *bench, g *gen) int {
	if k.churn {
		return k.perm[g.rng.Intn(max(b.mainUnits, 1))]
	}
	return g.rng.Intn(k.keys)
}

// read builds one read. The preference-aware families answer the
// anchor "true" and Rep "undetermined"; a key inside an update window
// may also be "undetermined" (resp. have no certain binding).
func (k *kv) read(b *bench, g *gen) *readReq {
	kind := g.kind(b.spec.weights)
	follower := !k.churn
	minVer := b.preloadVer
	if !follower {
		minVer = 0
	}
	if kind == kCount {
		return k.dept.read(g, follower, minVer)
	}
	f := g.family()
	g.n++
	// Churned reads never repeat a text: u is unique per request and
	// larger than every value, so the extra conjunct is always true.
	u := int64(2_000_000_000) + int64(g.id)*100_000_000 + int64(g.n)
	k1, k2 := k.readKey(b, g), k.readKey(b, g)
	for k2 == k1 && kind == kJoin {
		k2 = k.readKey(b, g) // one key joined with itself is always true
	}
	var text string
	switch kind {
	case kPoint:
		text = fmt.Sprintf("R(%d, 0)", k1)
		if k.churn {
			text = fmt.Sprintf("R(%d, 0) AND NOT R(%d, %d)", k1, k1, u)
		}
	case kQuant:
		text = fmt.Sprintf("EXISTS v . R(%d, v) AND v < 1", k1)
		if k.churn {
			text = fmt.Sprintf("EXISTS v . R(%d, v) AND v < 1 AND v != %d", k1, u)
		}
	case kJoin:
		text = fmt.Sprintf("EXISTS v, w . R(%d, v) AND R(%d, w) AND v = w", k1, k2)
		if k.churn {
			text = fmt.Sprintf("EXISTS v, w . R(%d, v) AND R(%d, w) AND v = w AND v != %d", k1, k2, u)
		}
	case kOpen:
		text = fmt.Sprintf("R(%d, v)", k1)
		if k.churn {
			text = fmt.Sprintf("R(%d, v) AND v < %d", k1, u)
		}
	}
	r := &readReq{kind: kind, fam: f, text: text, follower: follower, minVer: minVer}
	r.check = func(got *readResp, sent, ret time.Time) error {
		inWindow := k.churn && (k.overlaps(k1, sent, ret) || (kind == kJoin && k.overlaps(k2, sent, ret)))
		ok := false
		if kind == kOpen {
			settled := "v=0"
			if f == prefcqa.Rep {
				settled = ""
			}
			ok = got.bindings == settled || (inWindow && got.bindings == "")
		} else {
			settled := prefcqa.True.String()
			if f == prefcqa.Rep {
				settled = prefcqa.Undetermined.String()
			}
			ok = got.answer == settled || (inWindow && got.answer == prefcqa.Undetermined.String())
		}
		if !ok {
			return fmt.Errorf("wrong answer to %s %q: %s (update window overlapped: %v)", f, text, got.describe(), inWindow)
		}
		return nil
	}
	return r
}

func (k *kv) write(ctx context.Context, b *bench, w writer, from time.Time, s *sampler) (int, uint64, *readReq, error) {
	n := k.cursor.Add(1) - 1
	if !k.churn {
		// A fresh key: no conflict, read back as certainly true.
		key := k.keys + int(n)
		_, v, err := w.insert(ctx, "R", key, 0)
		if err != nil {
			return 0, 0, nil, err
		}
		s.add("write_us", us(time.Since(from)))
		probe := &readReq{kind: kPoint, fam: prefcqa.Global, text: fmt.Sprintf("R(%d, 0)", key), follower: true, minVer: v,
			check: expectExact(&readResp{answer: prefcqa.True.String()})}
		return 1, v, probe, nil
	}
	key := k.perm[int(n)%k.keys]
	val := 1_000_000 + n
	k.openWindow(key)
	id, _, err := w.insert(ctx, "R", key, val)
	if err != nil {
		return 0, 0, nil, err
	}
	if _, err := w.prefer(ctx, "R", k.anchor[key], id); err != nil {
		return 1, 0, nil, err
	}
	k.closeWindow(key)
	v, err := w.del(ctx, "R", k.loser[key])
	if err != nil {
		return 2, 0, nil, err
	}
	// One sample per update batch: its three requests are one logical
	// update, acknowledged when the last one is.
	s.add("write_us", us(time.Since(from)))
	k.loser[key] = id
	// Under Rep the new generation is in some repair but not in all.
	probe := &readReq{kind: kPoint, fam: prefcqa.Rep, text: fmt.Sprintf("R(%d, %d)", key, val), follower: true, minVer: v,
		check: expectExact(&readResp{answer: prefcqa.Undetermined.String()})}
	return 3, v, probe, nil
}
