// Command hipstr-fleet runs the multi-tenant fleet host: thousands of
// guest VMs admitted from a seeded open-loop Poisson traffic generator,
// forked from per-workload prototype snapshots (warm admission), and
// executed by a worker pool that dispatches from one host-owned run
// queue under per-tenant policy (step quotas, migration probability,
// kill/respawn under attack).
//
// A health monitor watches every run: aggregate metrics are sampled into
// a rolling history ring every 250 ms, the built-in SLO/anomaly rules
// (respawn storms, attack waves, latency SLO burn, injector starvation)
// are evaluated against it, and each rule firing captures an incident
// flight-recorder bundle — triggering series window, recent trace events,
// top offender tenants, host config — kept in memory, served over HTTP,
// and (with -incident-dir) dumped as JSON artifacts. After the drain the
// monitor keeps sampling for up to 5 s so open incidents can resolve.
//
// With -listen it serves the observability endpoints plus the fleet
// drill-down: /metrics carries fleet_* aggregates and per-tenant series,
// /tenants lists every guest, /tenants/{id} adds one guest's private
// telemetry snapshot, /history serves the metric history, /incidents the
// flight recorder, and /readyz reports ready only once every workload
// prototype is booted and warmed. cmd/hipstr-top renders all of it as a
// live terminal console.
//
// SIGINT or SIGTERM drains gracefully: admission stops, workers finish
// their in-flight slices, and the final -metrics-out snapshot and
// incident artifacts are still written before exit.
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
	"strings"
	"syscall"
	"time"

	"hipstr/internal/core"
	"hipstr/internal/fleet"
	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

const (
	// healthInterval is how often the monitor samples the aggregate
	// registry.
	healthInterval = 250 * time.Millisecond
	// incidentSettle bounds how long the monitor keeps sampling after the
	// drain so open incidents can resolve.
	incidentSettle = 5 * time.Second
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, admits and drains the fleet
// (a canceled ctx stops admission early), prints to stdout, writes the
// requested artifacts, and returns once every goroutine it started has
// exited.
func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("hipstr-fleet", flag.ContinueOnError)
	workloads := fs.String("workloads", "libquantum", "comma-separated workload profiles tenants run")
	guests := fs.Int("guests", 2000, "number of tenants to admit")
	rate := fs.Float64("rate", 0, "target admissions/sec for the open-loop Poisson generator (0 = admit back-to-back)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	slice := fs.Uint64("slice", fleet.DefaultSliceSteps, "step budget per dispatch slice")
	quota := fs.Uint64("quota", 200_000, "per-life step quota retiring a tenant (0 = run to completion)")
	seed := fs.Int64("seed", 1, "fleet seed rooting every deterministic stream")
	migrateProb := fs.Float64("migrate-prob", 1.0, "per-security-event migration probability (hipstr mode)")
	attackProb := fs.Float64("attack-prob", 0, "per-slice probability of an injected breach (exercises kill/respawn)")
	respawnLimit := fs.Int("respawn-limit", 3, "breach respawns before a tenant is killed for good")
	cacheQuota := fs.Uint("cache-quota", 0, "per-tenant code cache bytes per ISA (0 = engine default)")
	warmup := fs.Uint64("warmup", 50_000, "prototype warmup steps populating the shared unit cache")
	cold := fs.Bool("cold", false, "cold admission: boot every tenant from scratch (baseline vs warm forking)")
	mode := fs.String("mode", "hipstr", "psr | hipstr")
	listen := fs.String("listen", "", "serve observability + /tenants drill-down on this address")
	linger := fs.Bool("linger", false, "with -listen, keep serving after the drain until Ctrl-C")
	metricsOut := fs.String("metrics-out", "", "write the final aggregate metrics snapshot as JSON to this file")
	report := fs.Duration("report", 2*time.Second, "print a fleet status line this often (0 = none)")
	incidentDir := fs.String("incident-dir", "", "dump each incident flight-recorder bundle as JSON into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := fleet.DefaultConfig()
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.ColdAdmission = *cold
	cfg.Policy.SliceSteps = *slice
	cfg.Policy.StepQuota = *quota
	cfg.Policy.MigrateProb = *migrateProb
	cfg.Policy.AttackProb = *attackProb
	cfg.Policy.RespawnLimit = *respawnLimit
	cfg.Policy.CacheQuotaBytes = uint32(*cacheQuota)
	cfg.Policy.WarmupSteps = *warmup
	switch *mode {
	case "psr":
		cfg.Mode = core.ModePSR
	case "hipstr":
		cfg.Mode = core.ModeHIPStR
	default:
		return fmt.Errorf("unknown -mode %q (want psr or hipstr)", *mode)
	}

	h := fleet.NewHost(cfg)

	// The health engine: rolling history + built-in fleet rules + the
	// incident flight recorder, fed off the scrape-safe aggregate
	// registry by a dedicated sampling goroutine.
	mon := health.NewMonitor(health.Config{
		Rules:     fleet.DefaultHealthRules(),
		Telemetry: h.Telemetry(),
		Recorder: health.RecorderConfig{
			Events:  h.Telemetry().Trace.Tail,
			Tenants: h,
			Dir:     *incidentDir,
			HostConfig: map[string]any{
				"workloads": *workloads, "guests": *guests, "rate": *rate,
				"workers": cfg.Workers, "mode": *mode, "seed": *seed,
				"slice": *slice, "quota": *quota,
				"attack_prob": *attackProb, "respawn_limit": *respawnLimit,
				"cold": *cold,
			},
		},
	})

	// Serve before the prototypes boot so /healthz answers immediately
	// and /readyz honestly reports the warmup window.
	var srv *obsrv.Server
	if *listen != "" {
		srv, err = obsrv.Start(*listen, obsrv.Options{
			Snapshot: func() (telemetry.Snapshot, bool) {
				return h.Telemetry().Snapshot(), true
			},
			Tracer:  h.Telemetry().Trace,
			Tenants: h,
			Health: func() string {
				a := h.Aggregates()
				return fmt.Sprintf("fleet: %d active, %d/%d retired",
					a.Active, a.Completed+a.Killed, a.Admitted)
			},
			Ready: func() (bool, string) {
				if !h.Ready() {
					return false, "fleet prototypes still warming"
				}
				return true, "fleet prototypes warmed"
			},
			History:   mon.HistoryHandler(),
			Incidents: mon.Recorder.Handler(),
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := srv.Close(); err == nil {
				err = cerr
			}
		}()
		fmt.Fprintf(stdout, "observability: serving http://%s/ (metrics, tenants, history, incidents)\n", srv.Addr())
	}

	names := strings.Split(*workloads, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if err := h.AddWorkload(names[i]); err != nil {
			return err
		}
	}
	h.MarkReady()

	// The monitor samples on its own ticker: fleet collectors read only
	// atomics and the run-queue lock, so snapshotting off the worker
	// goroutines is safe.
	stopMon := every(healthInterval, func() { mon.ObserveNow(h.Telemetry().Snapshot()) })
	h.Start(ctx)
	stopStatus := func() {}
	if *report > 0 {
		stopStatus = every(*report, func() {
			a := h.Aggregates()
			fmt.Fprintf(stdout, "fleet: admitted %d  active %d (peak %d)  done %d  rps %.0f  p99 %.0fms  respawns %d  incidents open %d\n",
				a.Admitted, a.Active, a.ActivePeak,
				a.Completed+a.Killed, a.RPS,
				a.LatencyP99us/1000, a.Respawns, mon.OpenIncidents())
		})
	}

	// Open-loop admission: the schedule is fixed by the seed and rate; a
	// saturated host falls behind it rather than slowing it down. A failed
	// admission still drains the tenants already admitted.
	arr := workload.NewArrivals(*seed, *rate)
	start := time.Now()
	next := start
	admitted := 0
	var admitErr error
	for ; admitted < *guests && ctx.Err() == nil; admitted++ {
		next = next.Add(arr.Next())
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		if _, admitErr = h.Admit(names[admitted%len(names)]); admitErr != nil {
			break
		}
	}
	h.Close()
	interrupted := h.Wait() != nil
	stopStatus()
	if interrupted {
		fmt.Fprintf(stdout, "interrupted: admission stopped at %d/%d, in-flight slices finished\n",
			admitted, *guests)
	}

	// Let open incidents resolve (a storm's rate decays to zero once the
	// drain ends) so the final artifacts carry closed lifecycles; an
	// interrupt skips the settle.
	if ctx.Err() == nil && admitErr == nil {
		deadline := time.Now().Add(incidentSettle)
		for mon.OpenIncidents() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
	}
	stopMon()
	if admitErr != nil {
		return admitErr
	}
	mon.ObserveNow(h.Telemetry().Snapshot())

	a := h.Aggregates()
	fmt.Fprintf(stdout, "fleet complete: %d admitted, %d completed, %d killed in %v\n",
		a.Admitted, a.Completed, a.Killed, a.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  throughput: %.1f req/s  (%d steps, %d slices)\n",
		a.RPS, a.Steps, a.Slices)
	fmt.Fprintf(stdout, "  latency: p50 %.2fms  p99 %.2fms\n",
		a.LatencyP50us/1000, a.LatencyP99us/1000)
	fmt.Fprintf(stdout, "  defense: %d breaches, %d respawns, %d migrations\n",
		a.Breaches, a.Respawns, a.Migrations)
	opened, resolved, _ := mon.Recorder.Counts()
	fmt.Fprintf(stdout, "  health: %d incidents opened, %d resolved, %d still open\n",
		opened, resolved, opened-resolved)
	// An incident bundle that failed to land fails the run, after the
	// metrics artifact is written.
	dumpErr := mon.Recorder.DumpErr()
	if dumpErr == nil && *incidentDir != "" && opened > 0 {
		fmt.Fprintf(stdout, "  incident bundles written to %s\n", *incidentDir)
	}

	if *metricsOut != "" {
		if err := obsrv.WriteFile(*metricsOut, h.Telemetry().Snapshot().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsOut)
	}
	if dumpErr != nil {
		return fmt.Errorf("incident artifacts: %w", dumpErr)
	}

	if srv != nil && *linger && ctx.Err() == nil {
		fmt.Fprintf(stdout, "drain complete; observability server still on http://%s/ (Ctrl-C to exit)\n", srv.Addr())
		<-ctx.Done()
	}
	return nil
}

// every calls f every d on its own goroutine until the returned stop is
// called; stop returns once that goroutine has exited, so nothing f
// prints can interleave with what the caller prints next.
func every(d time.Duration, f func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				f()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
