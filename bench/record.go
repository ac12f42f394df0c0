package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// runOptions is one workload run as the command line asks for it.
type runOptions struct {
	seed     int64
	budget   time.Duration // measuring time (split in halves when traced)
	traced   bool
	traceOut string // Chrome trace path when traced
}

// recorder collects one measuring pass's samples and outcome counts.
type recorder struct {
	setup []float64 // seconds per set-up
	work  []float64 // seconds per unit of work
	ops   []float64 // milliseconds per operation

	attempted, failed int
	// redrawn counts the PSR seeds the guest warm-up rejected because the
	// program ran them wrongly (see README.md, "Known defect").
	redrawn int
}

// fail counts a failed operation or check and reports it on stderr.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
}

// peakRSSMB is the process's (or, with who = RUSAGE_CHILDREN, its waited
// children's) maximum resident set in MB.
func peakRSSMB(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// outcome fills the result's correctness fields.
func (r *recorder) outcome(m map[string]metric) result {
	return result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: m, redrawn: r.redrawn}
}

// endToEnd is an untraced run's result.
func (r *recorder) endToEnd() result {
	return r.outcome(fill(endToEnd, map[string]float64{
		"setup_s":     median(r.setup),
		"work_s":      median(r.work),
		"op_p50_ms":   median(r.ops),
		"peak_rss_mb": peakRSSMB(syscall.RUSAGE_SELF),
	}))
}

// perLayer is a traced run's result: r holds the untraced half (and the
// probes' outcomes), traced the traced half, vals the layer values the
// workload measured. It writes the Chrome trace.
func (r *recorder) perLayer(traced *recorder, vals map[string]float64, tr *tracer, opt runOptions) (result, error) {
	vals["bench.trace_overhead_pct"] = 100 * (ratio(median(traced.work), median(r.work)) - 1)
	vals["bench.op_p90_ms"] = percentile(r.ops, 90)
	vals["bench.op_p99_ms"] = percentile(r.ops, 99)
	vals["bench.ops"] = float64(len(r.ops))
	vals["bench.redrawn_seeds"] = float64(r.redrawn)
	if tr != nil {
		if err := tr.writeChrome(opt.traceOut); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: Chrome trace written to %s\n", opt.traceOut)
	}
	r.attempted += traced.attempted
	r.failed += traced.failed
	return r.outcome(fill(perLayer, vals)), nil
}
