package attack_test

import (
	"math"
	"testing"

	"hipstr/internal/attack"
	"hipstr/internal/compiler"
	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/psr"
	"hipstr/internal/workload"
)

func TestBruteForceTable2Shape(t *testing.T) {
	p, _ := workload.ProfileByName("libquantum")
	bin, err := workload.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res := attack.SimulateBruteForce(gadget.TakeCensus(bin, isa.X86), psr.DefaultConfig(), 1)
	if res.ViableGadgets == 0 || res.ViableGadgets > res.TotalGadgets {
		t.Fatalf("viable %d of %d", res.ViableGadgets, res.TotalGadgets)
	}
	if res.AvgParams < 2 || res.AvgParams > 20 {
		t.Fatalf("avg params %.2f implausible", res.AvgParams)
	}
	// ~13 bits per parameter at 8 KiB frames.
	wantBits := res.AvgParams * 13
	if math.Abs(res.EntropyBits-wantBits) > res.AvgParams {
		t.Fatalf("entropy %.1f bits, expected about %.1f", res.EntropyBits, wantBits)
	}
	// The paper's headline: computationally infeasible (>= 1e15 even in
	// our smaller-binary setting; the paper's binaries give ~1e34).
	if res.AttemptsNoBias < 1e15 {
		t.Fatalf("brute-force attempts %.2e too low — defense ineffective", res.AttemptsNoBias)
	}
	if res.AttemptsBias < 1e10 {
		t.Fatalf("bias attempts %.2e too low", res.AttemptsBias)
	}
	t.Logf("%s: %d/%d viable, %.2f params, %.0f bits, %.2e / %.2e attempts",
		res.Benchmark, res.ViableGadgets, res.TotalGadgets,
		res.AvgParams, res.EntropyBits, res.AttemptsNoBias, res.AttemptsBias)
}

func TestJITROPSurfaceCollapses(t *testing.T) {
	p, _ := workload.ProfileByName("libquantum")
	bin, err := workload.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	res, err := attack.SimulateJITROP(gadget.TakeCensus(bin, isa.X86), cfg, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %d viable, %d in cache, %d trigger migration, %d survive (exploit=%v)",
		res.Benchmark, res.TotalViable, res.InCache, res.TriggerMigration,
		res.Survivors, res.SufficientForExploit)
	if res.TotalViable == 0 {
		t.Fatal("no viable gadgets at all")
	}
	if res.InCache >= res.TotalViable {
		t.Fatal("cache surface not smaller than the binary surface")
	}
	if res.Survivors > res.InCache {
		t.Fatal("survivors exceed cache population")
	}
	if res.SufficientForExploit {
		t.Fatal("JIT-ROP survivors sufficient for the execve exploit — defense failed")
	}
}

func TestEntropyCurves(t *testing.T) {
	// Figure 7: diversification-only techniques give 2^n; PSR-based
	// techniques dwarf them.
	for n := 1; n <= 12; n++ {
		iso := attack.Entropy(attack.TechIsomeron, n, 87)
		het := attack.Entropy(attack.TechHetISA, n, 87)
		if iso != math.Pow(2, float64(n)) || het != iso {
			t.Fatalf("diversification entropy wrong at n=%d", n)
		}
		hip := attack.EntropyBits(attack.TechHIPStR, n, 87)
		if hip <= attack.EntropyBits(attack.TechPSR, n, 87) {
			t.Fatalf("HIPStR entropy must exceed PSR alone at n=%d", n)
		}
	}
	// The paper's example: a length-8 chain under diversification alone
	// succeeds one in 256 attempts.
	if got := attack.Entropy(attack.TechIsomeron, 8, 87); got != 256 {
		t.Fatalf("length-8 Isomeron entropy = %v, want 256", got)
	}
}

func TestTailoredSurface(t *testing.T) {
	mod := workload.Generate(mustProfile(t, "libquantum"))
	bin, err := compiler.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	// Use a plausible PSR-surviving count (measured elsewhere); here the
	// shape of the curves is under test.
	res, err := attack.AnalyzeTailored(mod, gadget.TakeCensus(bin, isa.X86), 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", res)
	if res.Viable == 0 {
		t.Fatal("no viable gadgets")
	}
	if res.CrossISAImmune > res.SameISAImmune {
		t.Fatal("cross-ISA immunity should be rarer than same-ISA immunity")
	}
	// Figure 8: at p=1 HIPStR retains (almost) nothing; PSR+Isomeron
	// retains its same-ISA-immune gadgets.
	hipAt1 := res.Surviving(attack.TechHIPStR, 1.0)
	comboAt1 := res.Surviving(attack.TechPSRIsomeron, 1.0)
	if hipAt1 > comboAt1 {
		t.Fatalf("HIPStR (%f) should beat PSR+Isomeron (%f) at p=1", hipAt1, comboAt1)
	}
	// Curves decrease in p.
	for _, tech := range []attack.Technique{attack.TechIsomeron, attack.TechHIPStR, attack.TechPSRIsomeron} {
		if res.Surviving(tech, 0.2) < res.Surviving(tech, 0.8) {
			t.Fatalf("%v curve not decreasing", tech)
		}
	}
}

func TestBlindROPModel(t *testing.T) {
	m := attack.BlindROPModel{EntropyBits: 13, Unknowns: 6}
	lt := m.LoadTimeAttempts()
	rt := m.RunTimeAttempts()
	if lt >= rt {
		t.Fatalf("load-time attempts (%.2e) must be far below run-time (%.2e)", lt, rt)
	}
	if lt > 1e6 {
		t.Fatalf("load-time randomization should fall to Blind-ROP quickly: %.2e", lt)
	}
	if rt < 1e20 {
		t.Fatalf("run-time re-randomization should be infeasible: %.2e", rt)
	}
}

func TestRespawnProbeDoesNotImprove(t *testing.T) {
	v := victim(t)
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModePSR
	cfg.DBT.Seed = 11
	hijacks, shells, err := attack.RespawnProbe(v, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("12 respawn probes: %d hijacks, %d shells", hijacks, shells)
	if shells > 1 {
		t.Fatalf("respawn probing spawned %d shells", shells)
	}
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return p
}
