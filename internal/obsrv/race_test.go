package obsrv_test

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/health"
	"hipstr/internal/isa"
	"hipstr/internal/obsrv"
	"hipstr/internal/profiler"
	"hipstr/internal/telemetry"
	"hipstr/internal/testprogs"
)

// TestSSEHammer streams /events to two clients while four goroutines emit
// into an 8-event ring. Each client connects before the first emit, so it
// owes nothing to a backlog: its ids must strictly increase, and its
// frames plus its reported drops must account for every sequence number.
func TestSSEHammer(t *testing.T) {
	const (
		emitters = 4
		perG     = 2000
		total    = emitters * perG
	)
	tr := telemetry.NewTracer(8)
	ts := httptest.NewServer(obsrv.NewHandler(obsrv.Options{Tracer: tr}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		clients.Add(1)
		go func() {
			defer clients.Done()
			var last, delivered, dropped, gap uint64
			sc := bufio.NewScanner(resp.Body)
			for last < total && sc.Scan() {
				line := sc.Text()
				if rest, ok := strings.CutPrefix(line, ": dropped "); ok {
					n, err := strconv.ParseUint(strings.Fields(rest)[0], 10, 64)
					if err != nil {
						t.Errorf("bad drop comment %q", line)
						return
					}
					gap += n
					continue
				}
				rest, ok := strings.CutPrefix(line, "id: ")
				if !ok {
					continue
				}
				id, err := strconv.ParseUint(rest, 10, 64)
				if err != nil || id != last+gap+1 {
					t.Errorf("id %q after %d with %d reported dropped, want %d", rest, last, gap, last+gap+1)
					return
				}
				delivered++
				dropped += gap
				last, gap = id, 0
			}
			if last != total || delivered+dropped != total {
				t.Errorf("stream ended at id %d: %d delivered + %d dropped, want %d", last, delivered, dropped, total)
			}
		}()
	}
	var emit sync.WaitGroup
	for g := 0; g < emitters; g++ {
		emit.Add(1)
		go func() {
			defer emit.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(telemetry.Event{Type: telemetry.EvTranslate})
			}
		}()
	}
	emit.Wait()
	clients.Wait()
}

// TestConcurrentScrapesDuringExecution is the -race proof of serving
// scrapes from health.Monitor.Latest: one goroutine drives a PSR VM in
// chunks, observing a snapshot at every chunk boundary, while scrapers
// hammer /metrics, /stats.json, and /profile throughout. Registry
// collectors read non-atomic VM state, so this only stays race-free
// because handlers never call Snapshot() themselves. Scrapers also assert
// the served counters never move backwards.
func TestConcurrentScrapesDuringExecution(t *testing.T) {
	tc := testprogs.All()["nested"]
	bin, err := compiler.Compile(tc.Mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(bin, 8)
	prof.SetClassResolver(vm.ResolvePCClass)
	prof.Attach(vm.P.M)
	prof.BindTelemetry(vm.Telemetry())

	mon := health.NewMonitor(health.Config{})
	h := obsrv.NewHandler(obsrv.Options{
		Snapshot: mon.Latest,
		Tracer:   vm.Telemetry().Trace,
		Profile:  func() (profiler.Report, bool) { return prof.Report(), true },
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	mon.ObserveNow(vm.Telemetry().Snapshot())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastHits uint64
			for n := 0; n < 25; n++ {
				for _, path := range []string{"/metrics", "/stats.json", "/profile"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("%s = %d", path, resp.StatusCode)
						return
					}
					if path == "/metrics" {
						h := promValue(t, string(body), "machine_blockcache_hits")
						if h < lastHits {
							t.Errorf("machine_blockcache_hits went backwards: %d -> %d", lastHits, h)
						}
						lastHits = h
					}
				}
			}
		}()
	}

	// Drive the VM in small chunks, observing at each boundary, for as
	// long as the scrapers run — every scrape overlaps an observe.
	scrapersDone := make(chan struct{})
	go func() { wg.Wait(); close(scrapersDone) }()
	const chunk = 20_000
	chunks := 0
	for {
		select {
		case <-scrapersDone:
		default:
			if !vm.P.Exited {
				if _, err := vm.Run(chunk); err != nil {
					t.Fatal(err)
				}
				if chunks++; chunks > 10_000 {
					t.Fatal("program did not exit")
				}
			}
			mon.ObserveNow(vm.Telemetry().Snapshot())
			continue
		}
		break
	}

	if !vm.P.Exited {
		t.Fatal("program did not exit")
	}
	snap, _ := mon.Latest()
	if snap.Counters["machine.blockcache.hits"] == 0 {
		t.Error("no block cache hits recorded")
	}
	if snap.Counters["profiler.samples"] == 0 {
		t.Error("profiler collector not reaching the served snapshot")
	}
}

func promValue(t *testing.T, body, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}
