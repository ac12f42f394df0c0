package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hipstr/internal/health"
)

// monitorHost runs a libquantum fleet with a health monitor sampling its
// aggregate registry every interval from a dedicated goroutine (the
// hipstr-fleet wiring in miniature), keeps sampling after the drain until
// stop returns true or settle has passed since h.Wait returned, and
// returns the host+monitor. The settle window starts at the drain's end,
// so a drain slowed by a loaded machine does not eat into it.
func monitorHost(t *testing.T, cfg Config, n int, interval time.Duration,
	settle time.Duration, stop func(*health.Monitor) bool) (*Host, *health.Monitor) {
	t.Helper()
	h := NewHost(cfg)
	mon := health.NewMonitor(health.Config{
		Rules:     DefaultHealthRules(),
		Telemetry: h.Telemetry(),
		Recorder: health.RecorderConfig{
			Events:  h.Telemetry().Trace.Tail,
			Tenants: h,
		},
	})
	if err := h.AddWorkload("libquantum"); err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	h.MarkReady()
	h.Start(context.Background())
	for i := 0; i < n; i++ {
		if _, err := h.Admit("libquantum"); err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
	}

	done := make(chan struct{})
	drained := make(chan time.Time, 1) // when h.Wait returned
	go func() {
		defer close(done)
		var deadline time.Time // zero until the drain ends
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for range tick.C {
			mon.ObserveNow(h.Telemetry().Snapshot())
			if deadline.IsZero() {
				select {
				case end := <-drained:
					deadline = end.Add(settle)
				default:
				}
			}
			if !deadline.IsZero() && time.Now().After(deadline) || stop(mon) {
				return
			}
		}
	}()

	h.Close()
	err := h.Wait()
	drained <- time.Now()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	<-done
	return h, mon
}

// TestDefaultHealthRulesSeriesExist: every built-in fleet rule reads a
// series the aggregate registry actually carries. A rule over a series
// that lives only in per-VM registries would evaluate healthy forever.
func TestDefaultHealthRulesSeriesExist(t *testing.T) {
	snap := runFleet(t, quotaConfig(2), 8).Telemetry().Snapshot()
	for _, r := range DefaultHealthRules() {
		_, counter := snap.Counters[r.Series]
		_, gauge := snap.Gauges[r.Series]
		if !counter && !gauge {
			t.Errorf("rule %s reads %s, which the fleet registry does not carry", r.Name, r.Series)
		}
	}
}

// TestFleetRespawnStormIncident is the health engine's end-to-end
// acceptance: a fleet under heavy attack injection must open the built-in
// respawn-storm incident with offender tenants and the triggering series
// window, and resolve it once the storm decays out of the rate window.
func TestFleetRespawnStormIncident(t *testing.T) {
	cfg := quotaConfig(4)
	cfg.Policy.AttackProb = 0.9
	cfg.Policy.RespawnLimit = 3

	// Stop once the respawn-storm incident has resolved. Other incidents
	// may still be open: under -race the slow tenants open
	// latency-slo-burn, which resolves only once they age out of its 10 s
	// latency window.
	stormDone := func(m *health.Monitor) bool {
		for _, inc := range m.Recorder.Incidents() {
			if inc.Rule.Name == "respawn-storm" {
				return !inc.Open()
			}
		}
		return false
	}
	h, mon := monitorHost(t, cfg, 64, 5*time.Millisecond, 10*time.Second, stormDone)

	if h.Aggregates().Respawns == 0 {
		t.Fatal("storm config produced no respawns; the test premise is broken")
	}
	// Read the incident the way an operator does: the /incidents listing,
	// then the forensic bundle behind it.
	srv := httptest.NewServer(mon.Recorder.Handler())
	defer srv.Close()
	list := getIncidents(t, srv.URL)
	if list.Opened < 1 {
		t.Fatalf("/incidents opened %d, want at least 1", list.Opened)
	}
	id := -1
	for _, inc := range list.Incidents {
		if inc.Rule == "respawn-storm" {
			if inc.State != "resolved" {
				t.Fatalf("respawn-storm incident %d is %s after the drain settle", inc.ID, inc.State)
			}
			if inc.Offenders < 1 {
				t.Fatalf("respawn-storm incident %d lists %d offenders", inc.ID, inc.Offenders)
			}
			id = inc.ID
			break
		}
	}
	if id < 0 {
		t.Fatalf("no respawn-storm incident in /incidents: %+v", list)
	}
	var bundle struct {
		Window    []json.RawMessage `json:"window"`
		Offenders []struct {
			ID    string  `json:"id"`
			Score float64 `json:"score"`
		} `json:"offenders"`
		Events []json.RawMessage `json:"events"`
	}
	getJSON(t, fmt.Sprintf("%s/incidents/%d", srv.URL, id), &bundle)
	if len(bundle.Window) == 0 {
		t.Fatal("respawn-storm bundle lost the triggering series window")
	}
	if len(bundle.Offenders) == 0 {
		t.Fatal("respawn-storm bundle has no offender tenants")
	}
	for _, o := range bundle.Offenders {
		if o.Score <= 0 {
			t.Fatalf("offender %s has score %v", o.ID, o.Score)
		}
	}
	if len(bundle.Events) == 0 {
		t.Fatal("respawn-storm bundle captured no trace events")
	}
}

// TestFleetQuietRunNoIncidents: with attack injection off, a drain opens
// nothing — the built-in rules' thresholds sit far above a healthy small
// fleet's behavior, so the health engine is silent on the happy path.
func TestFleetQuietRunNoIncidents(t *testing.T) {
	cfg := quotaConfig(4)
	_, mon := monitorHost(t, cfg, 32, 5*time.Millisecond, 500*time.Millisecond,
		func(*health.Monitor) bool { return false })
	srv := httptest.NewServer(mon.Recorder.Handler())
	defer srv.Close()
	if list := getIncidents(t, srv.URL); list.Opened != 0 {
		t.Fatalf("quiet fleet opened %d incidents: %+v", list.Opened, list.Incidents)
	}
}

// incidentList is the part of the /incidents listing the incident tests
// read, under its JSON names.
type incidentList struct {
	Opened    uint64 `json:"opened"`
	Incidents []struct {
		ID        int    `json:"id"`
		Rule      string `json:"rule"`
		State     string `json:"state"`
		Offenders int    `json:"offenders"`
	} `json:"incidents"`
}

// getIncidents fetches the /incidents listing of the server at base.
func getIncidents(t *testing.T, base string) incidentList {
	t.Helper()
	var list incidentList
	getJSON(t, base+"/incidents", &list)
	return list
}

// TestFleetHistoryScrapeDuringExecution hammers /history and /incidents
// over HTTP while the fleet executes and the monitor samples — the
// concurrent reader/writer contract the -race build checks.
func TestFleetHistoryScrapeDuringExecution(t *testing.T) {
	cfg := quotaConfig(4)
	cfg.Policy.AttackProb = 0.5
	cfg.Policy.RespawnLimit = 2

	h := NewHost(cfg)
	mon := health.NewMonitor(health.Config{
		Rules:     DefaultHealthRules(),
		Telemetry: h.Telemetry(),
		Recorder:  health.RecorderConfig{Events: h.Telemetry().Trace.Tail, Tenants: h},
	})
	if err := h.AddWorkload("libquantum"); err != nil {
		t.Fatalf("AddWorkload: %v", err)
	}
	h.Start(context.Background())

	mux := httptest.NewServer(mon.HistoryHandler())
	defer mux.Close()
	incSrv := httptest.NewServer(mon.Recorder.Handler())
	defer incSrv.Close()

	quit := make(chan struct{})
	var wg sync.WaitGroup

	// The single monitor writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mon.ObserveNow(h.Telemetry().Snapshot())
			case <-quit:
				return
			}
		}
	}()

	// Concurrent scrapers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			urls := []string{
				mux.URL + "/history",
				mux.URL + fmt.Sprintf("/history?series=fleet.respawns,fleet.active&points=%d", 16+g),
				incSrv.URL + "/incidents",
			}
			cl := mux.Client()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				resp, err := cl.Get(urls[i%len(urls)])
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}

	for i := 0; i < 48; i++ {
		if _, err := h.Admit("libquantum"); err != nil {
			t.Fatalf("Admit: %v", err)
		}
	}
	h.Close()
	if err := h.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	close(quit)
	wg.Wait()

	if mon.History.Len() == 0 {
		t.Fatal("monitor recorded no samples during the run")
	}
}
