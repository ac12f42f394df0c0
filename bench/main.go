// Command bench is the repository benchmark: it runs the HIPStR
// reproduction on four workloads, checks that every output is correct,
// and prints each end-to-end metric (untraced runs) or per-layer metric
// (traced runs) by name with its unit. The last line of standard output
// is one JSON result object. README.md describes the workloads, the
// metrics and how to run it; BENCHMARK.json at the repository root lists
// the metrics and their regression bounds.
//
//	go run . -workload guest-observed -seed 1 -seconds 20 -trace 0
//	go run . -workload all -out set1.json
//	go run . -compare set1.json set2.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// workloadNames are the benchmark's workloads in run order.
var workloadNames = []string{"paper-suite", "guest-observed", "guest-churn", "fleet-mixed"}

type runner interface {
	run(opt runOptions) (result, error)
}

// newWorkload returns the named workload at full size, checking its
// golden at seed 1, or recording a new golden when update is set.
func newWorkload(name string, update bool) (runner, error) {
	switch name {
	case "paper-suite":
		w := &suiteWorkload{probes: observedSet, update: update}
		if !update {
			if err := loadGolden("paper-suite.sha256", &w.golden); err != nil {
				return nil, err
			}
		}
		return w, nil
	case "guest-observed", "guest-churn":
		w := &guestWorkload{name: name, set: observedSet, setupReps: 3, update: update}
		if name == "guest-churn" {
			w.set = churnSet
		}
		if !update {
			w.golden = &guestGolden{}
			if err := loadGolden(name+".json", w.golden); err != nil {
				return nil, err
			}
		}
		return w, nil
	case "fleet-mixed":
		w := newFleetWorkload()
		w.update = update
		if !update {
			w.golden = &fleetGolden{}
			if err := loadGolden(name+".json", w.golden); err != nil {
				return nil, err
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, workloadNames)
}

func main() {
	if os.Getenv(childEnv) != "" {
		if err := runSuiteChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: paper-suite child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: paper-suite, guest-observed, guest-churn, fleet-mixed, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input (PSR seeds, arrivals, tenant mix)")
	seconds := fs.Float64("seconds", 25, "measuring time per workload run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing a Chrome trace")
	traceOut := fs.String("trace-out", "", "Chrome trace path of a traced run (default .bench_build/trace-<workload>.json)")
	out := fs.String("out", "", "append each run's record to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments")
	update := fs.Bool("update-goldens", false, "rewrite testdata goldens from this run (seed 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *update && *seed != 1 {
		fmt.Fprintln(os.Stderr, "bench: goldens are recorded at -seed 1")
		return 2
	}
	rec := runRecord{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace}
	if *name == "all" {
		return runAll(rec, *out, *update, stdout)
	}
	w, err := newWorkload(*name, *update)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	opt := runOptions{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, traceOut: *traceOut}
	if opt.traced && opt.traceOut == "" {
		opt.traceOut = defaultTraceOut(*name)
	}
	res, err := w.run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	printResult(stdout, *name, res)
	rec.Result, rec.Redrawn = res, res.redrawn
	if *out != "" {
		if err := appendRecords(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the result
// as the one-line JSON object that ends standard output.
func printResult(w io.Writer, workload string, res result) {
	defs := endToEnd
	if _, ok := res.Metrics[perLayer[0].Name]; ok {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-15s %-32s %16.6f %s\n", workload, d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-15s correct=%v attempted=%d failed=%d redrawn=%d\n",
		workload, res.Correct, res.Attempted, res.Failed, res.redrawn)
	b, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", b)
}

// runAll runs every workload in its own child process, so each starts
// with a fresh process-wide translation cache and its own peak RSS. Each
// child appends its own record to out.
func runAll(base runRecord, out string, update bool, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(base.Seed, 10),
			"-seconds", strconv.FormatFloat(base.Seconds, 'f', -1, 64), "-trace", strconv.Itoa(base.Trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		if update {
			args = append(args, "-update-goldens")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// runRecord is one workload run as -out stores it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
	// Redrawn is the result's rejected PSR seed count, which -compare
	// checks does not rise.
	Redrawn int `json:"redrawn"`
}

func readRecords(path string) ([]runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendRecords adds records to the JSON array in path, creating it.
func appendRecords(path string, recs ...runRecord) error {
	old, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	b, err := json.MarshalIndent(append(old, recs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
