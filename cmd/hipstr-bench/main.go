// Command hipstr-bench regenerates every table and figure of the paper's
// evaluation (§6-7) through the experiment engine: drivers come from the
// experiment registry, each driver's independent cells fan out on a
// bounded worker pool (-parallel), and results are exportable as both a
// metrics artifact (-metrics-out) and per-experiment JSON result
// artifacts (-results-out). Printed tables are byte-identical at any
// -parallel setting. Use -quick for a reduced sweep on the three smallest
// benchmarks and -list to see the registry. With -listen the observability
// server exposes the suite's metrics (per-figure series as they publish),
// the event stream, and pprof over HTTP while the evaluation runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"hipstr"
	"hipstr/internal/obsrv"
)

func main() {
	// Ctrl-C or SIGTERM cancels mid-sweep: in-flight cells finish, the
	// rest are skipped, and the run reports the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, runs the selected experiments
// until they finish or ctx is canceled, prints the report to stdout (and
// -out), writes the requested artifacts, and returns once the
// observability server (if any) has stopped.
func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("hipstr-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced sweeps on the three smallest benchmarks")
	outPath := fs.String("out", "", "also write the report to this file")
	only := fs.String("only", "", "run a comma-separated subset (e.g. fig9,fig12,httpd)")
	list := fs.Bool("list", false, "list registered experiments and exit")
	parallel := fs.Int("parallel", 0, "worker pool per experiment (0 = GOMAXPROCS, 1 = serial)")
	metricsOut := fs.String("metrics-out", "", "write a metrics JSON artifact (durations, run counters, per-figure series)")
	resultsOut := fs.String("results-out", "", "write one <experiment>.json result artifact per experiment into this directory")
	keepGoing := fs.Bool("keep-going", false, "continue with remaining experiments after a failure")
	listen := fs.String("listen", "", "serve live observability endpoints on this address (e.g. 127.0.0.1:9121)")
	timelineOut := fs.String("timeline-out", "", "write the experiment/cell span timeline as Chrome trace JSON (open in ui.perfetto.dev)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range hipstr.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name(), e.Description())
		}
		return nil
	}

	exps, err := hipstr.SelectExperiments(*only)
	if err != nil {
		return err
	}

	w := stdout
	if *outPath != "" {
		f, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		out := &reportFile{f: f}
		defer func() { err = errors.Join(err, out.Close()) }()
		w = io.MultiWriter(stdout, out)
	}

	var s *hipstr.ExperimentSuite
	if *quick {
		s = hipstr.NewQuickExperiments(w)
	} else {
		s = hipstr.NewExperiments(w)
	}
	s.Parallel = *parallel
	tel := hipstr.NewTelemetry()
	s.Telemetry = tel
	var spans *hipstr.SpanTracer
	if *timelineOut != "" || *listen != "" {
		spans = tel.EnableSpans(0)
	}

	// The suite registry carries no collectors (experiments publish series
	// with atomic writes), so handlers can snapshot it live from any
	// goroutine, unlike hipstr-run, which serves its health monitor's
	// latest observed snapshot.
	if *listen != "" {
		srv, serr := obsrv.Start(*listen, obsrv.Options{
			Snapshot: func() (hipstr.MetricsSnapshot, bool) { return tel.Snapshot(), true },
			Tracer:   tel.Trace,
			Spans:    spans,
		})
		if serr != nil {
			return serr
		}
		fmt.Fprintf(stdout, "observability: serving http://%s/\n", srv.Addr())
		defer func() { err = errors.Join(err, srv.Close()) }()
	}

	results, err := hipstr.RunExperiments(ctx, s, exps, hipstr.ExperimentOptions{
		ResultsDir:      *resultsOut,
		ContinueOnError: *keepGoing,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ndone.")
	if *resultsOut != "" {
		fmt.Fprintf(w, "%d result artifacts written to %s\n", len(results), *resultsOut)
	}

	if *timelineOut != "" {
		err := obsrv.WriteFile(*timelineOut, func(f io.Writer) error {
			return hipstr.WriteChromeTrace(f, spans.Spans(), nil)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline written to %s (%d spans; open in ui.perfetto.dev)\n",
			*timelineOut, spans.Completed())
	}
	if *metricsOut != "" {
		if err := obsrv.WriteFile(*metricsOut, tel.Snapshot().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics artifact written to %s\n", *metricsOut)
	}
	return nil
}

// reportFile is the -out copy of the report. It keeps the first write
// error instead of returning it, so the report still reaches stdout, and
// Close reports that error (else the close error) once the run is over.
type reportFile struct {
	f   *os.File
	err error
}

func (r *reportFile) Write(p []byte) (int, error) {
	if r.err == nil {
		_, r.err = r.f.Write(p)
	}
	return len(p), nil
}

func (r *reportFile) Close() error {
	if err := r.f.Close(); r.err == nil {
		r.err = err
	}
	if r.err != nil {
		return fmt.Errorf("out: %w", r.err)
	}
	return nil
}
