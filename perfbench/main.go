// Command perfbench is prefcqa's end-to-end benchmark. It boots
// prefserve servers (in-process, on loopback sockets, with production
// default options), loads a generated data set over HTTP, drives one
// workload's traffic from at most two connections, checks every
// answer, and prints each metric by name with its unit. The last line
// of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured over
// five rounds that run one after another in fresh processes (a run's
// figures vary with the process as much as with the seed): each
// latency p50 and capacity is taken over the samples of all rounds,
// every other figure is the median over the rounds.
// With --trace 1 one traced process reports the per-layer metrics and
// writes its spans and counters under --out. See METRICS.md for the
// workloads, phases and metric definitions.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload analyst_read --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn and ends with one result
// whose metrics are named <workload>.<metric>.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rounds is how many fresh processes an untraced run is split into.
const rounds = 5

// pooled names the end-to-end medians taken over the samples of all
// rounds, with the sample series each comes from: the latency p50s,
// and the capacities over their closed-loop windows. A round holds
// only a few lag probes and capacity windows, so a median of round
// medians would rest on a handful of samples each.
var pooled = map[string]string{
	"read_p50_us": "read_us", "open_p50_us": "open_us",
	"write_p50_us": "write_us", "lag_p50_us": "lag_us",
	"read_qps": "read_qps.windows", "write_qps": "write_qps.windows",
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	// round is the round a child process runs (-1 in the parent).
	round int
}

// measure is the time one process measures: its share of --seconds.
func (c config) measure() time.Duration {
	if c.round < 0 {
		return time.Duration(c.seconds) * time.Second
	}
	return time.Duration(c.seconds) * time.Second / rounds
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: analyst_read, churn_rw, follower_read or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for data directories and trace files")
	flag.IntVar(&cfg.round, "round", -1, "run only this round and print its result (set by the parent)")
	flag.Parse()
	cfg.trace = trace == 1
	sp, ok := specs[cfg.workload]
	if !ok && cfg.workload != "all" {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	out, err := filepath.Abs(cfg.out)
	if err != nil {
		return err
	}
	cfg.out = out
	if cfg.workload == "all" {
		return runAll(cfg)
	}
	if !cfg.trace && cfg.round < 0 {
		return runRounds(cfg)
	}
	root, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	b := &bench{cfg: cfg, spec: sp, root: root, series: map[string][]float64{}, values: map[string]float64{}, info: map[string]any{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	res, err := b.run()
	if err != nil {
		if b.all != nil {
			for _, e := range b.all.errs {
				fmt.Fprintln(os.Stderr, "perfbench: request failed:", e)
			}
		}
		b.teardown()
		return err
	}
	b.printInfo()
	if cfg.round >= 0 {
		if err := b.printSeries(); err != nil {
			return err
		}
	}
	return printResult(res)
}

// printSeries hands a round's latency samples to the parent, on a
// "# " line before the result.
func (b *bench) printSeries() error {
	series := map[string][]float64{}
	for _, name := range pooled {
		series[name] = b.series[name]
	}
	series["calib_us"] = b.series["calib_us"]
	line, err := json.Marshal(map[string]any{"perfbench_series": series})
	if err != nil {
		return err
	}
	fmt.Println("# " + string(line))
	return nil
}

func printResult(res *result) error {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRounds runs the rounds one after another, each in a fresh
// child process of this binary, and prints every metric's median over
// the rounds, or over their pooled samples (see pooled); attempts and
// failures add up.
func runRounds(cfg config) error {
	agg := &result{Correct: true, Metrics: map[string]metric{}}
	per := map[string][]float64{}
	samples := map[string][]float64{}
	var calib []float64
	slow := []int{}
	for r := 0; r < rounds; r++ {
		lines, res, err := child(cfg, cfg.workload, "--round", strconv.Itoa(r))
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		for _, l := range lines {
			var sr struct {
				Series map[string][]float64 `json:"perfbench_series"`
			}
			info, ok := strings.CutPrefix(l, "# ")
			if !ok || json.Unmarshal([]byte(info), &sr) != nil {
				continue
			}
			if sr.Series == nil {
				fmt.Println(l) // the round's record of what its figures depend on
			}
			for name, xs := range sr.Series {
				if name == "calib_us" {
					calib = append(calib, median(xs))
					if median(xs) > calibSlow*calibRefUs {
						slow = append(slow, r)
					}
					continue
				}
				samples[name] = append(samples[name], xs...)
			}
		}
		agg.Correct = agg.Correct && res.Correct
		agg.Attempted += res.Attempted
		agg.Failed += res.Failed
		for name, m := range res.Metrics {
			per[name] = append(per[name], m.Value)
			agg.Metrics[name] = metric{Unit: m.Unit}
		}
	}
	for name, m := range agg.Metrics {
		if len(per[name]) != rounds {
			return fmt.Errorf("metric %s missing from a round", name)
		}
		v := median(per[name])
		if src, ok := pooled[name]; ok {
			v = median(samples[src])
		}
		agg.Metrics[name] = metric{Value: v, Unit: m.Unit}
	}
	counts := map[string]int{}
	for name, xs := range samples {
		counts[name] = len(xs)
	}
	line, err := json.Marshal(map[string]any{"perfbench_rounds": per, "pooled_samples": counts,
		"calib_us": calib, "host_slow_rounds": slow, "error_rate": ratio(float64(agg.Failed), float64(agg.Attempted))})
	if err != nil {
		return err
	}
	fmt.Println("# " + string(line))
	return printResult(agg)
}

// child runs this binary on one workload with cfg's seed, seconds,
// trace and output directory plus extra flags, and returns its
// standard output lines and its result.
func child(cfg config, workload string, extra ...string) ([]string, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := append([]string{"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace, "--out", cfg.out}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("result: %w", err)
	}
	return lines, &res, nil
}

// runAll runs every workload in turn, each in a child process, prints
// each one's output, and ends with one result: metrics named
// <workload>.<metric>, attempts and failures added up.
func runAll(cfg config) error {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range sortedKeys(specs) {
		lines, res, err := child(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		fmt.Printf("== %s\n%s\n", w, strings.Join(lines, "\n"))
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w+"."+name] = m
		}
	}
	fmt.Println("== all")
	return printResult(all)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printInfo records what the figures depend on: seed, CPUs, Go
// version, fsync policy, offered rates and the sample count behind
// every percentile. It goes to standard output (before the result
// line) and is appended to <out>/perfbench-runs.jsonl.
func (b *bench) printInfo() {
	b.info["workload"] = b.cfg.workload
	b.info["seed"] = b.cfg.seed
	b.info["seconds"] = b.cfg.seconds
	b.info["round"] = b.cfg.round
	b.info["trace"] = b.cfg.trace
	b.info["num_cpu"] = runtime.NumCPU()
	b.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.info["go_version"] = runtime.Version()
	b.info["fsync"] = fsync.String()
	b.info["rates_per_s"] = map[string]any{
		"read_open_loop":          b.spec.readRate,
		"write_open_loop":         b.spec.writeRate,
		"probe":                   b.spec.probeRate,
		"stats_scrape":            b.spec.scrapeRate,
		"closed_loop_connections": closedConns,
	}
	samples := map[string]int{}
	for k, v := range b.series {
		samples[k] = len(v)
	}
	b.info["samples"] = samples
	line, err := json.Marshal(map[string]any{"perfbench": b.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: info:", err)
		return
	}
	fmt.Println("# " + string(line))
	f, err := os.OpenFile(filepath.Join(b.cfg.out, "perfbench-runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: info:", err)
		return
	}
	fmt.Fprintln(f, string(line))
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: info:", err)
	}
}

// endToEnd and perLayer list every metric with its unit, in the
// order of BENCHMARK.json.
var endToEnd = [][2]string{
	{"read_p50_us", "us"}, {"open_p50_us", "us"}, {"read_qps", "1/s"},
	{"write_p50_us", "us"}, {"write_qps", "1/s"}, {"lag_p50_us", "us"},
	{"setup_s", "s"}, {"recovery_s", "s"}, {"heap_mb", "MB"},
}

var perLayer = [][2]string{
	{"read_p99_us", "us"}, {"write_p99_us", "us"}, {"lag_p99_us", "us"}, {"error_rate", "ratio"},
	{"client.transport_us", "us"},
	{"server.handler_us", "us"}, {"server.stats_us", "us"},
	{"prefcqa.snapshot_us", "us"}, {"prefcqa.point_us", "us"}, {"prefcqa.quant_us", "us"},
	{"prefcqa.join_us", "us"}, {"prefcqa.count_us", "us"}, {"prefcqa.open_us", "us"}, {"prefcqa.write_us", "us"},
	{"query.parse_us", "us"}, {"query.repeat_share", "ratio"},
	{"cqa.pruned_share", "ratio"}, {"cqa.open_direct_share", "ratio"}, {"cqa.checks_per_open", "count"},
	{"core.memo_hit_rate", "ratio"},
	{"wal.append_us", "us"}, {"wal.sync_us", "us"}, {"wal.bytes_per_write", "bytes"},
	{"replication.ship_us", "us"}, {"replication.wake_us", "us"},
	{"replication.apply_us", "us"}, {"replication.commit_us", "us"}, {"replication.bootstrap_s", "s"},
	{"relation.load_s", "s"}, {"conflict.build_s", "s"},
	{"gen.late_p99_us", "us"}, {"trace.overhead_us", "us"}, {"host.calib_us", "us"},
	{"workload.tuples", "count"}, {"workload.conflicts", "count"}, {"workload.components", "count"},
	{"workload.multi_choice_components", "count"}, {"workload.read_share", "ratio"},
}

// collect builds the result from the run's values; a metric the run
// could not measure is an error, never a silent zero.
func (b *bench) collect() (*result, error) {
	list := endToEnd
	if b.cfg.trace {
		list = perLayer
	}
	res := &result{Metrics: map[string]metric{}, Attempted: b.all.attempted, Failed: b.all.failed}
	res.Correct = b.all.failed == 0
	var missing []string
	for _, m := range list {
		v, ok := b.values[m[0]]
		if !ok || v != v { // absent or NaN
			missing = append(missing, m[0])
			continue
		}
		res.Metrics[m[0]] = metric{Value: v, Unit: m[1]}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no samples for %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, errors.New("no request was attempted")
	}
	b.info["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	b.info["errors"] = b.all.errs
	return res, nil
}

// shortCtx bounds one set-up or check call.
func shortCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 60*time.Second)
}
