package health

import (
	"sync"
	"time"

	"hipstr/internal/telemetry"
)

// Config assembles a Monitor: history bounds, the rule set, and the
// flight recorder's forensic sources.
type Config struct {
	// WindowSamples / MaxSeries bound the history ring (0 = defaults).
	WindowSamples int
	MaxSeries     int
	// Rules is the declarative SLO/anomaly rule set.
	Rules []Rule
	// Recorder wires the forensic sources and artifact dir.
	Recorder RecorderConfig
	// Telemetry, when set, receives the health engine's own series
	// (health.samples, health.incidents.*) and the recorder's incident
	// open/resolve events — so the watcher is itself watchable.
	Telemetry *telemetry.Telemetry
}

// Monitor owns one history ring, one rule engine, and one incident
// recorder. Observe is its single write entry point and must be called
// from one goroutine (the one that snapshots the registry); every other
// method is safe concurrently with it.
type Monitor struct {
	History  *History
	Engine   *Engine
	Recorder *Recorder

	mu       sync.Mutex
	latest   telemetry.Snapshot
	observed bool
}

// NewMonitor builds the monitor.
func NewMonitor(cfg Config) *Monitor {
	if cfg.Recorder.Emit == nil && cfg.Telemetry != nil {
		tel := cfg.Telemetry
		cfg.Recorder.Emit = func(e telemetry.Event) { tel.Emit(e) }
	}
	h := NewHistory(cfg.WindowSamples, cfg.MaxSeries)
	rec := NewRecorder(cfg.Recorder)
	m := &Monitor{
		History:  h,
		Engine:   NewEngine(h, rec, cfg.Rules),
		Recorder: rec,
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.Reg.RegisterCollector(func() {
			opened, resolved, stored := rec.Counts()
			tel.Counter("health.incidents.opened").Set(opened)
			tel.Counter("health.incidents.resolved").Set(resolved)
			tel.Gauge("health.incidents.stored").Set(float64(stored))
			tel.Gauge("health.incidents.open").Set(float64(opened - resolved))
			tel.Counter("health.samples").Set(h.Total())
			tel.Counter("health.series_dropped").Set(h.DroppedSeries())
		})
	}
	return m
}

// Observe appends one registry snapshot to the history, evaluates the
// rules at tsNS, and keeps snap as the Latest.
func (m *Monitor) Observe(tsNS int64, snap telemetry.Snapshot) {
	m.History.Append(tsNS, snap)
	m.Engine.Eval(tsNS)
	m.mu.Lock()
	m.latest, m.observed = snap, true
	m.mu.Unlock()
}

// Latest returns the snapshot most recently passed to Observe; ok is false
// before the first. It is safe from any goroutine, so scrape handlers
// serve it where the registry's collectors read VM state only the
// observing goroutine may touch; each observed snapshot is newer than the
// last, so successive scrapes see monotone counters. History rows would
// not do: they flatten histograms into four series.
func (m *Monitor) Latest() (snap telemetry.Snapshot, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest, m.observed
}

// ObserveNow is Observe stamped with the current wall clock.
func (m *Monitor) ObserveNow(snap telemetry.Snapshot) {
	m.Observe(time.Now().UnixNano(), snap)
}

// OpenIncidents reports how many incidents are currently open.
func (m *Monitor) OpenIncidents() int {
	opened, resolved, _ := m.Recorder.Counts()
	return int(opened - resolved)
}
