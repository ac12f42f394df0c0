package dbt_test

import (
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/telemetry"
)

// TestTelemetryMatchesStats is the registry-consistency guarantee: after a
// run, every registry-backed counter reports exactly what the legacy
// VM.Stats / RATOf / Cache accessors do.
func TestTelemetryMatchesStats(t *testing.T) {
	bin, _ := compile(t, "addrtaken")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm := runVM(t, bin, isa.X86, cfg)

	tel := vm.Telemetry()
	if tel == nil {
		t.Fatal("VM constructed without telemetry")
	}
	s := tel.Snapshot()

	st := vm.Stats
	wantCounters := map[string]uint64{
		"dbt.translations.x86":   st.Translations[isa.X86],
		"dbt.translations.arm":   st.Translations[isa.ARM],
		"dbt.indirect_dispatch":  st.IndirectDispatch,
		"dbt.code_cache_misses":  st.CodeCacheMisses,
		"dbt.compulsory_misses":  st.CompulsoryMisses,
		"dbt.return_misses":      st.ReturnMisses,
		"dbt.security_events":    st.SecurityEvents,
		"dbt.migrations":         st.Migrations,
		"dbt.chain_patches":      st.ChainPatches,
		"dbt.kills":              st.Kills,
		"dbt.flushes":            st.Flushes,
		"dbt.syscalls_forwarded": st.SyscallsForwarded,
	}
	for _, k := range isa.Kinds {
		rat := vm.RATOf(k)
		wantCounters["dbt.rat."+k.String()+".lookups"] = rat.Lookups
		wantCounters["dbt.rat."+k.String()+".misses"] = rat.Misses
		wantCounters["dbt.rat."+k.String()+".evictions"] = rat.Evictions
		c := vm.Cache(k)
		wantCounters["dbt.cache."+k.String()+".lookups"] = c.Lookups
		wantCounters["dbt.cache."+k.String()+".hits"] = c.Hits
	}
	for name, want := range wantCounters {
		if got, ok := s.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present=%v), accessor says %d", name, got, ok, want)
		}
	}
	if s.Counters["dbt.translations.x86"] == 0 {
		t.Fatal("no translations recorded — instrumentation dead")
	}
	// The translation-latency histogram must have one observation per
	// translation event on each ISA.
	for _, k := range isa.Kinds {
		h := s.Histograms["dbt.translate.latency_us."+k.String()]
		if h.Count != st.Translations[k] {
			t.Errorf("latency histogram %s count %d != translations %d",
				k, h.Count, st.Translations[k])
		}
	}
	// Gauges mirror the live structures.
	if got := s.Gauges["dbt.cache.x86.used_bytes"]; got != float64(vm.Cache(isa.X86).Used()) {
		t.Errorf("used_bytes gauge %v != %d", got, vm.Cache(isa.X86).Used())
	}
	if got := s.Gauges["dbt.rat.x86.hit_ratio"]; got != vm.RATOf(isa.X86).HitRatio() {
		t.Errorf("rat hit ratio gauge %v != %v", got, vm.RATOf(isa.X86).HitRatio())
	}
	// Trace must carry translate events — as many as units were committed.
	var translateEvents uint64
	for _, e := range tel.Trace.Tail(0) {
		if e.Type == telemetry.EvTranslate {
			translateEvents++
		}
	}
	total := st.Translations[isa.X86] + st.Translations[isa.ARM]
	if tel.Trace.Emitted() < total {
		t.Fatalf("trace emitted %d events, want >= %d translations", tel.Trace.Emitted(), total)
	}
	if translateEvents == 0 {
		t.Fatal("no translate events in ring")
	}
}

// TestTelemetrySharedInstance checks an injected telemetry instance is
// used rather than a private one.
func TestTelemetrySharedInstance(t *testing.T) {
	bin, _ := compile(t, "addrtaken")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	cfg.Telemetry = telemetry.New()
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Telemetry() != cfg.Telemetry {
		t.Fatal("VM ignored the injected telemetry instance")
	}
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if cfg.Telemetry.Snapshot().Counters["dbt.translations.x86"] == 0 {
		t.Fatal("shared registry saw no metrics")
	}
}

// TestTraceCapConfigurable checks Config.TraceCap sizes the private
// tracer's ring, and that zero keeps the 4096 default.
func TestTraceCapConfigurable(t *testing.T) {
	bin, _ := compile(t, "addrtaken")
	cfg := dbt.DefaultConfig()
	cfg.TraceCap = 64
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := vm.Telemetry().Trace.Cap(); got != 64 {
		t.Fatalf("trace cap = %d, want 64", got)
	}
	vm, err = dbt.New(bin, isa.X86, dbt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := vm.Telemetry().Trace.Cap(); got != telemetry.DefaultTraceCap {
		t.Fatalf("default trace cap = %d, want %d", got, telemetry.DefaultTraceCap)
	}
}

// TestForkInheritsTraceCap checks that forks and respawns size their
// private tracer ring from the snapshot's Config.TraceCap, and that an
// injected Telemetry is used as-is.
func TestForkInheritsTraceCap(t *testing.T) {
	bin, _ := compile(t, "addrtaken")
	cfg := dbt.DefaultConfig()
	cfg.TraceCap = 64
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	fork, err := snap.Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := snap.Respawn(isa.X86, 999, dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, vm := range map[string]*dbt.VM{"fork": fork, "respawn": re} {
		if got := vm.Telemetry().Trace.Cap(); got != 64 {
			t.Fatalf("%s trace cap = %d, want 64", name, got)
		}
	}
	tel := telemetry.New()
	fork, err = snap.Fork(dbt.ForkConfig{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if fork.Telemetry() != tel {
		t.Fatal("fork ignored the injected telemetry instance")
	}
	if got := tel.Trace.Cap(); got != telemetry.DefaultTraceCap {
		t.Fatalf("injected trace cap = %d, want %d", got, telemetry.DefaultTraceCap)
	}
}
