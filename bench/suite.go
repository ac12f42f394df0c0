package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"hipstr"
)

// childEnv marks a process as a paper-suite child: it reads a
// suiteChildConfig on stdin and writes a suiteChildResult on stdout.
const childEnv = "HIPSTR_BENCH_CHILD"

// suiteChildConfig is what the parent tells one paper-suite child.
type suiteChildConfig struct {
	// SpawnedUnixNS is the parent's wall clock just before it started the
	// child, so set-up includes process start.
	SpawnedUnixNS int64  `json:"spawned_unix_ns"`
	Quick         bool   `json:"quick"`
	Only          string `json:"only"`
	Traced        bool   `json:"traced"`
	TraceOut      string `json:"trace_out"`
}

// expTime is one experiment's wall time and outcome in a child.
type expTime struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
	Err  string  `json:"err,omitempty"`
}

// suiteChildResult is one child's measurement.
type suiteChildResult struct {
	SetupS       float64    `json:"setup_s"`
	SuiteS       float64    `json:"suite_s"`
	Exps         []expTime  `json:"exps"`
	SHA256       string     `json:"sha256"`
	SharedHits   uint64     `json:"shared_hits"`
	SharedMisses uint64     `json:"shared_misses"`
	Layers       layerTimes `json:"layers"`
	PeakRSSMB    float64    `json:"-"`
}

// suiteParallel is the experiment engine's worker count: 2, the core
// count the benchmark is sized for, and never more cores than the host has.
func suiteParallel() int { return min(2, runtime.NumCPU()) }

// runSuiteChild is a child's whole life: set up, run every experiment
// with one RunExperiments call each, and report.
func runSuiteChild(stdin io.Reader, stdout io.Writer) error {
	var cfg suiteChildConfig
	if err := json.NewDecoder(stdin).Decode(&cfg); err != nil {
		return fmt.Errorf("child config: %w", err)
	}
	var s *hipstr.ExperimentSuite
	if cfg.Quick {
		s = hipstr.NewQuickExperiments(io.Discard)
	} else {
		s = hipstr.NewExperiments(io.Discard)
	}
	s.Parallel = suiteParallel()
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
		tel := hipstr.NewTelemetry()
		tel.Spans = tr.spans
		s.Telemetry = tel
	}
	exps, err := hipstr.SelectExperiments(cfg.Only)
	if err != nil {
		return err
	}
	// Set-up compiles the suite's benchmarks, through the one experiment
	// that needs nothing else: Figure 6's static migration-safety analysis.
	fig6, err := hipstr.SelectExperiments("fig6")
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := hipstr.RunExperiments(ctx, s, fig6, hipstr.ExperimentOptions{}); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res := suiteChildResult{SetupS: float64(time.Now().UnixNano()-cfg.SpawnedUnixNS) / 1e9}
	if tr != nil {
		tr.collect(0) // attribute only the measured window
	}
	var out bytes.Buffer
	s.Out = &out
	t0 := time.Now()
	for _, e := range exps {
		e0 := time.Now()
		sp := tr.start("experiments", e.Name())
		_, err := hipstr.RunExperiments(ctx, s, []hipstr.Experiment{e}, hipstr.ExperimentOptions{})
		sp.End()
		et := expTime{Name: e.Name(), MS: float64(time.Since(e0).Nanoseconds()) / 1e6}
		if err != nil {
			et.Err = err.Error()
		}
		res.Exps = append(res.Exps, et)
	}
	suite := time.Since(t0)
	res.SuiteS = suite.Seconds()
	sum := sha256.Sum256(out.Bytes())
	res.SHA256 = hex.EncodeToString(sum[:])
	st := hipstr.SharedUnitCache()
	res.SharedHits, res.SharedMisses = st.Hits, st.Misses
	if tr != nil {
		res.Layers = tr.collect(suite)
		if cfg.TraceOut != "" {
			if err := tr.writeChrome(cfg.TraceOut); err != nil {
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}

// spawnSuiteChild runs one child process and waits for it.
func spawnSuiteChild(ctx context.Context, cfg suiteChildConfig) (suiteChildResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return suiteChildResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cfg.SpawnedUnixNS = time.Now().UnixNano()
	in, err := json.Marshal(cfg)
	if err != nil {
		return suiteChildResult{}, err
	}
	cmd.Stdin = bytes.NewReader(in)
	if err := cmd.Run(); err != nil {
		return suiteChildResult{}, fmt.Errorf("paper-suite child: %w", err)
	}
	var res suiteChildResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return suiteChildResult{}, fmt.Errorf("paper-suite child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	return res, nil
}

// suiteWorkload is paper-suite: the full hipstr-bench evaluation, each
// repetition in a fresh child process so that it starts, as a user's run
// does, with an empty process-wide translation cache.
type suiteWorkload struct {
	quick bool
	only  string
	// probes is the guest set the traced run's layer probes use: the
	// configuration the suite's timing figures run under.
	probes guestSet
	golden string // expected SHA-256 of the printed tables ("" = unchecked)
	update bool   // record the golden instead of checking it
}

// children runs children until the budget is spent (at least one),
// checking every child's tables against the first's and the golden.
func (w *suiteWorkload) children(ctx context.Context, budget time.Duration, traced bool, traceOut string, rec *recorder, sha *string) []suiteChildResult {
	var out []suiteChildResult
	start := time.Now()
	for {
		c0 := time.Now()
		cfg := suiteChildConfig{Quick: w.quick, Only: w.only, Traced: traced}
		if traced && len(out) == 0 {
			cfg.TraceOut = traceOut
		}
		res, err := spawnSuiteChild(ctx, cfg)
		if err != nil {
			rec.attempted++
			rec.fail("%v", err)
			return out
		}
		out = append(out, res)
		rec.setup = append(rec.setup, res.SetupS)
		rec.work = append(rec.work, res.SuiteS)
		for _, e := range res.Exps {
			rec.attempted++
			rec.ops = append(rec.ops, e.MS)
			if e.Err != "" {
				rec.fail("%s: %s", e.Name, e.Err)
			}
		}
		w.checkTables(res.SHA256, sha, rec)
		if el := time.Since(start); el+time.Since(c0) > budget {
			return out
		}
	}
}

// checkTables compares one child's tables hash with the first child's
// (recorded in first) and with the golden, counting each mismatch as a
// failed operation.
func (w *suiteWorkload) checkTables(sha string, first *string, rec *recorder) {
	switch {
	case *first == "":
		*first = sha
	case sha != *first:
		rec.fail("paper-suite tables differ between children (%s vs %s)", sha, *first)
	}
	if w.golden != "" && sha != w.golden {
		rec.fail("paper-suite tables hash %s, golden %s", sha, w.golden)
	}
}

func (w *suiteWorkload) run(opt runOptions) (result, error) {
	ctx := context.Background()
	rec := &recorder{}
	var sha string
	if !opt.traced {
		cs := w.children(ctx, opt.budget, false, "", rec, &sha)
		if w.update {
			if err := writeGolden("paper-suite.sha256", sha); err != nil {
				return result{}, err
			}
		}
		res := rec.endToEnd()
		res.Metrics["peak_rss_mb"] = metric{Value: maxChildRSS(cs), Unit: "MB"}
		return res, nil
	}
	w.children(ctx, opt.budget/2, false, "", rec, &sha)
	traced := &recorder{}
	cs := w.children(ctx, opt.budget/2, true, opt.traceOut, traced, &sha)
	vals := map[string]float64{}
	var lt layerTimes
	var hits, misses uint64
	byName := map[string]float64{}
	suiteMS := 0.0
	for _, c := range cs {
		lt.add(c.Layers)
		hits += c.SharedHits
		misses += c.SharedMisses
		for _, e := range c.Exps {
			byName[e.Name] += e.MS
			suiteMS += e.MS
		}
	}
	lt.shares(vals)
	other := 100.0
	for _, n := range experimentNames {
		vals["experiments."+n+"_pct"] = 100 * ratio(byName[n], suiteMS)
		other -= vals["experiments."+n+"_pct"]
	}
	vals["experiments.other_pct"] = other
	vals["dbt.shared_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	jobs, err := probeJobs(w.probes, opt.seed)
	if err != nil {
		return result{}, err
	}
	rec.redrawn = redraws(jobs)
	runProbes(jobs, opt.seed, rec, vals)
	// The traced children wrote the Chrome trace themselves.
	return rec.perLayer(traced, vals, nil, opt)
}

func maxChildRSS(cs []suiteChildResult) float64 {
	m := 0.0
	for _, c := range cs {
		m = max(m, c.PeakRSSMB)
	}
	return m
}
