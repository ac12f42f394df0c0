package migrate_test

import (
	"math"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/telemetry"
	"hipstr/internal/testprogs"
	"hipstr/internal/workload"
)

// wantMigrationDigest folds every TestMigrationDigest run. It was recorded
// before the two migration kinds shared one attempt path and the safety
// policy became one capacity; change it only when a change means to alter
// what migration moves, counts, costs or traces.
const wantMigrationDigest = 0xc891663ac37e026

// migrationStepCap bounds each profile run of TestMigrationDigest.
const migrationStepCap = 3_000_000

// migrationLog records every migration event and every span of one
// telemetry instance; as tracer and span sinks it sees what a ring would
// drop.
type migrationLog struct {
	events []telemetry.Event
	spans  []telemetry.SpanEvent
}

func (l *migrationLog) Emit(e telemetry.Event) {
	if e.Type == telemetry.EvMigrateBegin || e.Type == telemetry.EvMigrateEnd {
		l.events = append(l.events, e)
	}
}

func (l *migrationLog) EmitSpan(s telemetry.SpanEvent) { l.spans = append(l.spans, s) }

// newLoggedTelemetry returns a telemetry instance with spans on whose
// events and spans land in the returned log.
func newLoggedTelemetry() (*telemetry.Telemetry, *migrationLog) {
	log := new(migrationLog)
	tel := telemetry.New()
	tel.Trace.AddSink(log)
	tel.EnableSpans(0).AddSink(log)
	return tel, log
}

// migrationFold is an FNV-1a digest of migration runs. It also counts the
// outcomes it folds, by source ISA, so the test can show it is not vacuous.
type migrationFold struct {
	d                       uint64
	resume, entry, refusals [2]int
}

func (f *migrationFold) word(w uint64) { f.d = (f.d ^ w) * 1099511628211 }

func (f *migrationFold) float(v float64) { f.word(math.Float64bits(v)) }

func (f *migrationFold) str(s string) {
	f.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.word(uint64(s[i]))
	}
}

// run folds one finished run: its result, the engine's stats, every
// migration event and every span on the migrate track.
func (f *migrationFold) run(t *testing.T, steps uint64, err error, exit uint32, eng *migrate.Engine, log *migrationLog) {
	t.Helper()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	f.str(msg)
	f.word(uint64(exit))
	f.word(steps)
	st := eng.Stats
	for _, v := range []uint64{st.Attempts, st.Migrations, st.Unsafe, st.FramesMoved, st.ObjectsMoved} {
		f.word(v)
	}
	f.float(st.TotalCostMicros)
	f.float(st.LastCostMicros)

	f.word(uint64(len(log.events)))
	var src isa.Kind
	entry := false
	for _, e := range log.events {
		f.str(string(e.Type))
		f.str(e.ISA)
		f.word(uint64(e.Addr))
		f.str(e.Detail)
		f.float(e.Cost)
		if e.Type == telemetry.EvMigrateBegin {
			src, entry = isaNamed(t, e.ISA), e.Detail == "callee-entry"
			continue
		}
		switch {
		case e.ISA == "": // a refusal names no target
			f.refusals[src]++
		case entry:
			f.entry[src]++
		default:
			f.resume[src]++
		}
	}

	names := make(map[uint64]string, len(log.spans))
	for _, s := range log.spans {
		names[s.ID] = s.Name
	}
	n := 0
	for _, s := range log.spans {
		if s.Track != "migrate" {
			continue
		}
		n++
		f.str(s.Name)
		f.str(s.ISA)
		f.str(s.Detail)
		f.float(s.CostUS)
		f.str(names[s.ParentID])
	}
	f.word(uint64(n))
}

func isaNamed(t *testing.T, name string) isa.Kind {
	t.Helper()
	for _, k := range isa.Kinds {
		if k.String() == name {
			return k
		}
	}
	t.Fatalf("migration event names no ISA: %q", name)
	return 0
}

// bootLogged boots bin under HIPStR with cfg and a logged telemetry
// instance.
func bootLogged(t *testing.T, bin *fatbin.Binary, cfg core.Config) (*core.System, *migrationLog) {
	t.Helper()
	tel, log := newLoggedTelemetry()
	cfg.DBT.Telemetry = tel
	sys, err := core.New(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, log
}

// TestMigrationDigest pins what migration computes, counts and traces: the
// benchmark profiles under HIPStR security migration on both start ISAs,
// Fig 12's forced phase migrations, refused attempts of both kinds on both
// ISAs, and Fig 6's safety analysis at both regimes, folded into one
// recorded constant.
func TestMigrationDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark under HIPStR")
	}
	f := &migrationFold{d: 14695981039346656037}
	units := dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
	for _, p := range append(workload.Profiles(), workload.HTTPD()) {
		bin, err := workload.Compile(p)
		if err != nil {
			t.Fatalf("compile %s: %v", p.Name, err)
		}
		// Security migrations in a flushing cache, from each ISA.
		for _, k := range isa.Kinds {
			cfg := core.DefaultConfig()
			cfg.StartISA = k
			cfg.DBT.Seed = p.Seed
			cfg.DBT.CodeCacheSize = 16 << 10
			cfg.DBT.SharedUnits = units
			sys, log := bootLogged(t, bin, cfg)
			steps, err := sys.Run(migrationStepCap)
			f.run(t, steps, err, sys.ExitCode(), sys.Engine, log)
		}
		// Fig 12: at two checkpoints, force x86 -> ARM, then ARM -> x86.
		for c := 0; c < 2; c++ {
			cfg := core.DefaultConfig()
			cfg.DBT.Seed = p.Seed + int64(c)
			cfg.DBT.MigrateProb = 0
			cfg.DBT.SharedUnits = units
			sys, log := bootLogged(t, bin, cfg)
			steps, err := sys.Run(uint64(3_000 + 7_000*c))
			for dir := 0; dir < 2 && err == nil; dir++ {
				sys.RequestPhaseMigration()
				before := sys.Engine.Stats.Migrations
				for i := 0; i < 400 && err == nil && !sys.Exited() && sys.Engine.Stats.Migrations == before; i++ {
					var n uint64
					n, err = sys.Run(5_000)
					steps += n
				}
			}
			f.run(t, steps, err, sys.ExitCode(), sys.Engine, log)
		}
		// Fig 6 at both regimes.
		for _, rep := range []migrate.SafetyReport{
			migrate.AnalyzeSafety(bin, migrate.OnDemandCapacity),
			migrate.AnalyzeSafety(bin, 0),
		} {
			f.word(uint64(rep.Total))
			f.word(uint64(rep.Safe[isa.X86]))
			f.word(uint64(rep.Safe[isa.ARM]))
		}
	}

	// Refusals: a mid-instruction resume point and a non-entry callee on
	// each ISA; the guest then runs to exit where it stood.
	bin, err := compiler.Compile(testprogs.SumLoop(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range isa.Kinds {
		tel, log := newLoggedTelemetry()
		cfg := dbt.DefaultConfig()
		cfg.MigrateProb = 0
		cfg.Telemetry = tel
		vm, err := dbt.New(bin, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := migrate.New()
		eng.BindTelemetry(tel)
		entry := bin.Func("main").Entry[k]
		if eng.Migrate(vm, entry+3, true) || eng.MigrateEntry(vm, entry+4) {
			t.Fatalf("%s: unsafe point accepted for migration", k)
		}
		steps, err := vm.Run(maxSteps)
		f.run(t, steps, err, vm.P.ExitCode, eng, log)
	}

	for _, k := range isa.Kinds {
		if f.resume[k] == 0 || f.entry[k] == 0 || f.refusals[k] == 0 {
			t.Errorf("from %s: %d resume, %d callee-entry migrations, %d refusals; want each > 0",
				k, f.resume[k], f.entry[k], f.refusals[k])
		}
	}
	t.Logf("resume %v, callee-entry %v, refusals %v (by source ISA)", f.resume, f.entry, f.refusals)
	if f.d != wantMigrationDigest {
		t.Errorf("digest %#x, want %#x", f.d, uint64(wantMigrationDigest))
	}
}
