package core_test

import (
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/core"
	"hipstr/internal/telemetry"
	"hipstr/internal/testprogs"
)

// TestSystemTelemetry checks the shared observability pipeline: one
// registry spans the DBT and the migration engine, and migration events
// carry their modeled cost into the per-direction histograms.
func TestSystemTelemetry(t *testing.T) {
	bin, err := compiler.Compile(testprogs.AddressTaken())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(bin, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Telemetry() == nil || s.Telemetry() != s.VM.Telemetry() {
		t.Fatal("system and VM do not share one telemetry instance")
	}
	if _, err := s.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	snap := s.Telemetry().Snapshot()
	if snap.Counters["dbt.security_events"] != s.SecurityEvents() {
		t.Fatalf("registry security events %d != accessor %d",
			snap.Counters["dbt.security_events"], s.SecurityEvents())
	}
	if snap.Counters["dbt.migrations"] != s.Migrations() {
		t.Fatalf("registry migrations %d != accessor %d",
			snap.Counters["dbt.migrations"], s.Migrations())
	}
	if snap.Counters["migrate.attempts"] != s.Engine.Stats.Attempts {
		t.Fatalf("registry attempts %d != engine %d",
			snap.Counters["migrate.attempts"], s.Engine.Stats.Attempts)
	}
	// Per-direction cost histograms must account for every successful
	// migration.
	hist := snap.Histograms["migrate.cost_us.to_x86"]
	histARM := snap.Histograms["migrate.cost_us.to_arm"]
	if hist.Count+histARM.Count != s.Engine.Stats.Migrations {
		t.Fatalf("cost histograms hold %d observations, want %d migrations",
			hist.Count+histARM.Count, s.Engine.Stats.Migrations)
	}
	if s.Migrations() > 0 {
		found := map[telemetry.EventType]bool{}
		for _, e := range s.Telemetry().Trace.Tail(0) {
			found[e.Type] = true
		}
		for _, want := range []telemetry.EventType{
			telemetry.EvSecurity, telemetry.EvPolicy,
			telemetry.EvMigrateBegin, telemetry.EvMigrateEnd,
		} {
			if !found[want] {
				t.Errorf("trace missing %q events", want)
			}
		}
	}
}

// TestRespawnEmitsEvent checks the §5.3 respawn path reports through
// telemetry.
func TestRespawnEmitsEvent(t *testing.T) {
	bin, err := compiler.Compile(testprogs.Fib(10))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(bin, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Respawn(); err != nil {
		t.Fatal(err)
	}
	var sawRespawn bool
	for _, e := range s.Telemetry().Trace.Tail(0) {
		if e.Type == telemetry.EvRespawn {
			sawRespawn = true
		}
	}
	if !sawRespawn {
		t.Fatal("no respawn event traced")
	}
	if got := s.Telemetry().Snapshot().Gauges["core.respawns"]; got != 1 {
		t.Fatalf("core.respawns gauge = %v, want 1", got)
	}
}
