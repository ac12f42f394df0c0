package migrate_test

import (
	"reflect"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/proc"
	"hipstr/internal/testprogs"
)

const maxSteps = 20_000_000

func runNative(t *testing.T, bin *fatbin.Binary, k isa.Kind) *proc.Process {
	t.Helper()
	p, err := proc.New(bin, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunToExit(maxSteps); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMigrationPreservesBehavior is the HIPStR correctness core: with
// migration probability 1 and a tiny RAT forcing frequent security events,
// execution ping-pongs between the ISAs — and must still produce exactly
// the native behavior.
func TestMigrationPreservesBehavior(t *testing.T) {
	for name, tc := range testprogs.All() {
		bin, err := compiler.Compile(tc.Mod)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		native := runNative(t, bin, isa.X86)
		for seed := int64(0); seed < 3; seed++ {
			t.Run(name, func(t *testing.T) {
				cfg := dbt.DefaultConfig()
				cfg.Seed = seed
				cfg.RATSize = 2 // force return misses -> migration attempts
				cfg.MigrateProb = 1.0
				vm, err := dbt.New(bin, isa.X86, cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng := migrate.New()
				vm.Migrator = eng
				if _, err := vm.Run(maxSteps); err != nil {
					t.Fatalf("seed %d: run: %v", seed, err)
				}
				if !vm.P.Exited {
					t.Fatalf("seed %d: did not exit", seed)
				}
				if vm.P.ExitCode != native.ExitCode {
					t.Errorf("seed %d: exit %d, native %d", seed, vm.P.ExitCode, native.ExitCode)
				}
				if !reflect.DeepEqual(vm.P.Trace, native.Trace) {
					t.Errorf("seed %d: trace diverged", seed)
				}
			})
		}
	}
}

// TestMigrationActuallyHappens drives a call-chain workload whose distinct
// return sites overwhelm a tiny RAT, so each return miss migrates.
func TestMigrationActuallyHappens(t *testing.T) {
	bin, err := compiler.Compile(testprogs.CallChain(16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.RATSize = 2
	cfg.MigrateProb = 1.0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := migrate.New()
	vm.Migrator = eng
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	want := uint32(7 + 15*16/2)
	if vm.P.ExitCode != want {
		t.Fatalf("exit %d, want %d", vm.P.ExitCode, want)
	}
	if eng.Stats.Migrations == 0 {
		t.Fatal("no migrations occurred despite RAT pressure")
	}
	if vm.Stats.SecurityMigrations == 0 {
		t.Fatal("VM did not count security migrations")
	}
	if eng.Stats.FramesMoved == 0 || eng.Stats.ObjectsMoved == 0 {
		t.Fatal("migration moved no state")
	}
	if eng.Stats.TotalCostMicros <= 0 {
		t.Fatal("cost model not accounted")
	}
}

// TestEntryMigrationViaIndirectCalls exercises the callee-entry boundary:
// indirect call targets always compulsory-miss on first dispatch.
func TestEntryMigrationViaIndirectCalls(t *testing.T) {
	tc := testprogs.All()["table"]
	bin, err := compiler.Compile(tc.Mod)
	if err != nil {
		t.Fatal(err)
	}
	native := runNative(t, bin, isa.X86)
	for seed := int64(0); seed < 5; seed++ {
		cfg := dbt.DefaultConfig()
		cfg.Seed = seed
		cfg.MigrateProb = 1.0
		vm, err := dbt.New(bin, isa.X86, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := migrate.New()
		vm.Migrator = eng
		if _, err := vm.Run(maxSteps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if vm.P.ExitCode != native.ExitCode {
			t.Fatalf("seed %d: exit %d, want %d", seed, vm.P.ExitCode, native.ExitCode)
		}
		if eng.Stats.Migrations == 0 {
			t.Fatalf("seed %d: indirect-call misses did not migrate", seed)
		}
	}
}

// TestBidirectionalPingPong verifies multiple migrations in both
// directions still converge on the right answer.
func TestBidirectionalPingPong(t *testing.T) {
	bin, err := compiler.Compile(testprogs.Fib(14))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.RATSize = 1
	cfg.MigrateProb = 1.0
	vm, err := dbt.New(bin, isa.ARM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := migrate.New()
	vm.Migrator = eng
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if vm.P.ExitCode != 377 {
		t.Fatalf("fib(14) = %d, want 377", vm.P.ExitCode)
	}
	if eng.Stats.Migrations < 2 {
		t.Fatalf("expected repeated migrations, got %d", eng.Stats.Migrations)
	}
}

func TestSafetyAnalysisShape(t *testing.T) {
	bin, err := compiler.Compile(testprogs.NestedLoops(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	onDemand := migrate.AnalyzeSafety(bin, migrate.OnDemandCapacity)
	legacy := migrate.AnalyzeSafety(bin, 0)
	for _, k := range isa.Kinds {
		od, lg := onDemand.Fraction(k), legacy.Fraction(k)
		if od < lg {
			t.Fatalf("%s: on-demand fraction %.2f below legacy %.2f", k, od, lg)
		}
		if od <= 0 || od > 1 {
			t.Fatalf("%s: fraction %.2f out of range", k, od)
		}
	}
	// Loop-heavy code must show the on-demand improvement (the paper's
	// 45% -> 78%).
	if onDemand.Fraction(isa.X86) <= legacy.Fraction(isa.X86) {
		t.Fatal("on-demand transformation shows no improvement on loop code")
	}
}

func TestCostModelDirectionAsymmetry(t *testing.T) {
	toX86 := migrate.CostMicros(isa.X86, 5, 200)
	toARM := migrate.CostMicros(isa.ARM, 5, 200)
	if toARM <= toX86 {
		t.Fatalf("x86->ARM (%f) should cost more than ARM->x86 (%f)", toARM, toX86)
	}
}

func TestUnsafePointRefusesGracefully(t *testing.T) {
	// A gadget-like resume address (mid-block, not a call site) must be
	// refused without corrupting state.
	bin, err := compiler.Compile(testprogs.SumLoop(50))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := migrate.New()
	fn := bin.Func("main")
	if ok := eng.Migrate(vm, fn.Entry[isa.X86]+3, true); ok {
		t.Fatal("mid-instruction address accepted for migration")
	}
	if eng.Stats.Unsafe != 1 {
		t.Fatalf("unsafe not counted: %+v", eng.Stats)
	}
	// Execution still completes on the original ISA.
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if vm.P.ExitCode != 1225 {
		t.Fatalf("exit %d want 1225", vm.P.ExitCode)
	}
}
