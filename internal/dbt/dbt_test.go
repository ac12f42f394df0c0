package dbt_test

import (
	"errors"
	"reflect"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/proc"
	"hipstr/internal/prog"
	"hipstr/internal/testprogs"
)

const maxSteps = 20_000_000

func compile(t *testing.T, name string) (*fatbin.Binary, uint32) {
	t.Helper()
	tc, ok := testprogs.All()[name]
	if !ok {
		t.Fatalf("unknown test program %q", name)
	}
	bin, err := compiler.Compile(tc.Mod)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return bin, tc.Exit
}

func runVM(t *testing.T, bin *fatbin.Binary, k isa.Kind, cfg dbt.Config) *dbt.VM {
	t.Helper()
	vm, err := dbt.New(bin, k, cfg)
	if err != nil {
		t.Fatalf("vm boot: %v", err)
	}
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatalf("vm run: %v", err)
	}
	if !vm.P.Exited {
		t.Fatal("program did not exit under the PSR VM")
	}
	return vm
}

// TestPSRPreservesBehavior is the central legitimate-execution guarantee
// (paper §5.3): every program must behave identically under PSR
// translation — same exit code, same syscall trace — on both ISAs, across
// several randomization seeds and optimization levels.
func TestPSRPreservesBehavior(t *testing.T) {
	for name, tc := range testprogs.All() {
		bin, err := compiler.Compile(tc.Mod)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		for _, k := range isa.Kinds {
			native, err := proc.New(bin, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := native.RunToExit(maxSteps); err != nil {
				t.Fatalf("%s native %s: %v", name, k, err)
			}
			for seed := int64(0); seed < 3; seed++ {
				for _, opt := range []dbt.OptLevel{dbt.O0, dbt.O3} {
					cfg := dbt.DefaultConfig()
					cfg.Seed = seed
					cfg.Opt = opt
					cfg.MigrateProb = 0
					t.Run(name+"/"+k.String(), func(t *testing.T) {
						vm := runVM(t, bin, k, cfg)
						if vm.P.ExitCode != native.ExitCode {
							t.Errorf("seed %d opt %d: exit %d, native %d",
								seed, opt, vm.P.ExitCode, native.ExitCode)
						}
						if !reflect.DeepEqual(vm.P.Trace, native.Trace) {
							t.Errorf("seed %d opt %d: trace %v, native %v",
								seed, opt, vm.P.Trace, native.Trace)
						}
					})
				}
			}
		}
	}
}

func TestTranslationIsLazy(t *testing.T) {
	// Only executed paths may be translated: run a program with an
	// untaken branch arm and verify the code cache holds fewer units than
	// the binary has blocks.
	bin, _ := compile(t, "fib")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	cfg.DualTranslate = false
	vm := runVM(t, bin, isa.X86, cfg)
	total := 0
	for _, f := range bin.Funcs {
		total += len(f.Blocks)
	}
	if n := vm.Cache(isa.X86).NumUnits(); n == 0 {
		t.Fatal("nothing translated")
	}
	if n := vm.Cache(isa.ARM).NumUnits(); n != 0 {
		t.Fatalf("ARM cache has %d units despite DualTranslate=false and no migration", n)
	}
}

func TestDualTranslationWarmsOtherCache(t *testing.T) {
	bin, _ := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	cfg.DualTranslate = true
	vm := runVM(t, bin, isa.X86, cfg)
	if n := vm.Cache(isa.ARM).NumUnits(); n == 0 {
		t.Fatal("dual translation produced no ARM units")
	}
}

func TestReturnAddressesOnStackAreSourceAddresses(t *testing.T) {
	// Paper §3.4: all return addresses stored on the stack point to
	// original source code, never into the code cache. Verify via the
	// RAT: every lookup during a run must be for a text address.
	bin, _ := compile(t, "fib")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm := runVM(t, bin, isa.X86, cfg)
	if vm.RATOf(isa.X86).Lookups == 0 {
		t.Fatal("no RAT activity in a recursive program")
	}
	if vm.RATOf(isa.X86).Misses > 0 {
		t.Fatalf("unexpected RAT misses in steady execution: %d", vm.RATOf(isa.X86).Misses)
	}
}

func TestCodeCacheMissesAreZeroInSteadyState(t *testing.T) {
	// Paper Figure 13: with an adequately sized code cache, no indirect
	// control transfer misses — so no security migrations.
	bin, _ := compile(t, "table") // exercises indirect calls
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm := runVM(t, bin, isa.X86, cfg)
	if vm.Stats.IndirectDispatch == 0 {
		t.Fatal("test program should perform indirect calls")
	}
	// First-use of each function pointer is a compulsory miss; re-use
	// must hit. table calls 3 distinct pointers once each, so misses
	// <= distinct targets.
	if vm.Stats.CodeCacheMisses > 3 {
		t.Fatalf("too many indirect misses: %d", vm.Stats.CodeCacheMisses)
	}
}

func TestTinyCodeCacheFlushesAndStillWorks(t *testing.T) {
	mod := testprogs.CallChain(12) // many functions: lots of units
	bin, err := compiler.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.CodeCacheSize = 2048 // absurdly small: forces flushes
	cfg.MigrateProb = 0
	cfg.DualTranslate = false
	vm := runVM(t, bin, isa.X86, cfg)
	if vm.Stats.Flushes == 0 {
		t.Fatal("expected code cache flushes with a 2 KiB cache")
	}
	want := uint32(7 + 11*12/2)
	if vm.P.ExitCode != want {
		t.Fatalf("program result lost across flushes: %d != %d", vm.P.ExitCode, want)
	}
}

func TestTinyRATStillCorrect(t *testing.T) {
	// The RAT is keyed by source return address: recursion reuses call
	// sites, so capacity pressure needs many *distinct* sites.
	mod := testprogs.CallChain(16)
	bin, err := compiler.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.RATSize = 4
	cfg.MigrateProb = 0
	vm := runVM(t, bin, isa.X86, cfg)
	want := uint32(7 + 15*16/2)
	if vm.P.ExitCode != want {
		t.Fatalf("tiny RAT broke execution: %d vs %d", vm.P.ExitCode, want)
	}
	if vm.RATOf(isa.X86).Misses == 0 {
		t.Fatal("expected RAT misses with 4 entries and 17 distinct call sites")
	}
	// RAT misses are security events: they retranslate through the
	// legitimate-recovery path.
	if vm.Stats.ReturnMisses == 0 {
		t.Fatal("return misses not recorded")
	}
}

func TestIndirectJumpIntoCodeCacheIsKilled(t *testing.T) {
	// Software fault isolation (§5.1): a function pointer pointing into
	// the code cache must terminate the process. A global holds a
	// poisoned pointer aimed into the x86 code cache.
	mb := prog.NewModule("poison")
	poison := fatbin.X86CacheBase + 16
	init := []byte{byte(poison), byte(poison >> 8), byte(poison >> 16), byte(poison >> 24)}
	g := mb.Global("fp", 4, init)
	fb := mb.Func("main", 0)
	base := fb.GlobalAddr(g, 0)
	fp := fb.Load(base, 0)
	fb.CallInd(fp, false)
	fb.Ret(prog.NoVReg)
	bin, err := compiler.Compile(mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.Run(maxSteps)
	if !errors.Is(err, dbt.ErrSecurityKill) {
		t.Fatalf("want ErrSecurityKill, got %v (exited=%v)", err, vm.P.Exited)
	}
	if vm.Stats.Kills == 0 {
		t.Fatal("kill not counted")
	}
}
