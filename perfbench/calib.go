package main

import "time"

// Host calibration. Before each phase the benchmark times a fixed
// CPU-bound loop. Its time depends on the host alone: a neighbour that
// takes CPU time from the benchmark's vCPUs makes it slower, so a run
// or a round measured on a loaded host shows in its own record rather
// than being guessed at afterwards.
const (
	// calibIters is the loop length of one calibration pass, about
	// 2.6 ms on the reference host.
	calibIters = 1 << 20
	// calibPasses is how many passes one calibration times; it reports
	// their median.
	calibPasses = 5
	// calibRefUs is the median calibration time on the reference host
	// (METRICS.md), and a round whose median calibration exceeds
	// calibSlow times it is marked host_slow.
	calibRefUs = 2600.0
	calibSlow  = 1.25
)

// calibSink keeps the loop's result live.
var calibSink uint64

// calibLoop runs one pass: a xorshift generator, which neither
// allocates nor touches memory.
func calibLoop() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(t)
}

// calibrate times the loop before a phase and records it under the
// phase's name.
func (b *bench) calibrate(phase string) {
	xs := make([]float64, calibPasses)
	for i := range xs {
		xs[i] = us(calibLoop())
	}
	if b.calib == nil {
		b.calib = map[string]float64{}
	}
	b.calib[phase] = median(xs)
}

// calibFigures reports the run's calibration: every phase's time in
// the record, their median as host.calib_us, and whether the host was
// slow.
func (b *bench) calibFigures() {
	xs := make([]float64, 0, len(b.calib))
	for _, v := range b.calib {
		xs = append(xs, v)
	}
	m := median(xs)
	b.values["host.calib_us"] = m
	b.series["calib_us"] = xs
	b.info["calib_us"] = b.calib
	b.info["host_slow"] = m > calibSlow*calibRefUs
}
