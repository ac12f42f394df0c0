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
	quick := flag.Bool("quick", false, "reduced sweeps on the three smallest benchmarks")
	outPath := flag.String("out", "", "also write the report to this file")
	only := flag.String("only", "", "run a comma-separated subset (e.g. fig9,fig12,httpd)")
	list := flag.Bool("list", false, "list registered experiments and exit")
	parallel := flag.Int("parallel", 0, "worker pool per experiment (0 = GOMAXPROCS, 1 = serial)")
	metricsOut := flag.String("metrics-out", "", "write a metrics JSON artifact (durations, run counters, per-figure series)")
	resultsOut := flag.String("results-out", "", "write one <experiment>.json result artifact per experiment into this directory")
	keepGoing := flag.Bool("keep-going", false, "continue with remaining experiments after a failure")
	listen := flag.String("listen", "", "serve live observability endpoints on this address (e.g. 127.0.0.1:9121)")
	timelineOut := flag.String("timeline-out", "", "write the experiment/cell span timeline as Chrome trace JSON (open in ui.perfetto.dev)")
	flag.Parse()

	if *list {
		for _, e := range hipstr.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name(), e.Description())
		}
		return
	}

	exps, err := hipstr.SelectExperiments(*only)
	if err != nil {
		log.Fatal(err)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
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

	// Ctrl-C or SIGTERM cancels mid-sweep: in-flight cells finish, the
	// rest are skipped, and the run reports the cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The suite registry carries no collectors (experiments publish series
	// with atomic writes), so handlers can snapshot it live from any
	// goroutine, unlike hipstr-run, which serves its health monitor's
	// latest observed snapshot.
	if *listen != "" {
		srv, err := obsrv.Start(*listen, obsrv.Options{
			Snapshot: func() (hipstr.MetricsSnapshot, bool) { return tel.Snapshot(), true },
			Tracer:   tel.Trace,
			Spans:    spans,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("observability: serving http://%s/\n", srv.Addr())
		defer func() {
			if err := srv.Close(); err != nil {
				log.Printf("observability: %v", err)
			}
		}()
	}

	results, err := hipstr.RunExperiments(ctx, s, exps, hipstr.ExperimentOptions{
		ResultsDir:      *resultsOut,
		ContinueOnError: *keepGoing,
	})
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
		fmt.Fprintf(w, "timeline written to %s (%d spans; open in ui.perfetto.dev)\n",
			*timelineOut, spans.Completed())
	}
	if *metricsOut != "" {
		if err := obsrv.WriteFile(*metricsOut, tel.Snapshot().WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "metrics artifact written to %s\n", *metricsOut)
	}
}
