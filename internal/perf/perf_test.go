package perf_test

import (
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/perf"
	"hipstr/internal/workload"
)

func bench(t *testing.T, name string) *fatbin.Binary {
	t.Helper()
	p, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	bin, err := workload.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestNativeMeasurement(t *testing.T) {
	bin := bench(t, "libquantum")
	m, err := perf.MeasureNative(bin, isa.X86, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Instrs == 0 || m.Cycles <= 0 {
		t.Fatalf("empty measurement: %+v", m)
	}
	if m.CPI < 0.25 || m.CPI > 20 {
		t.Fatalf("x86 CPI %.2f implausible", m.CPI)
	}
	t.Logf("x86 native: %d instrs, CPI %.2f", m.Instrs, m.CPI)
}

func TestX86CoreOutperformsARM(t *testing.T) {
	// Same work on both cores: the Xeon-class core should finish it in
	// less wall time (higher frequency, deeper ROB).
	bin := bench(t, "libquantum")
	mx, err := perf.MeasureNative(bin, isa.X86, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := perf.MeasureNative(bin, isa.ARM, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("x86 %.3gms vs arm %.3gms", mx.Seconds*1e3, ma.Seconds*1e3)
	if mx.Seconds >= ma.Seconds {
		t.Fatalf("x86 (%.3gms) not faster than ARM (%.3gms)", mx.Seconds*1e3, ma.Seconds*1e3)
	}
}

func TestPSROverheadIsBoundedAndOptimizationsHelp(t *testing.T) {
	bin := bench(t, "libquantum")
	native, err := perf.MeasureNative(bin, isa.X86, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rel := map[dbt.OptLevel]float64{}
	for _, opt := range []dbt.OptLevel{dbt.O0, dbt.O2, dbt.O3} {
		cfg := dbt.DefaultConfig()
		cfg.Opt = opt
		cfg.MigrateProb = 0
		m, _, _, err := perf.MeasureVM(bin, isa.X86, cfg, 1, 2)
		if err != nil {
			t.Fatalf("opt %d: %v", opt, err)
		}
		rel[opt] = perf.Relative(native, m)
		t.Logf("O%d: relative %.3f (CPI %.2f vs native %.2f)", opt, rel[opt], m.CPI, native.CPI)
	}
	if rel[dbt.O0] <= 0.2 || rel[dbt.O0] >= 1.05 {
		t.Fatalf("O0 relative performance %.2f out of plausible range", rel[dbt.O0])
	}
	// Figure 9's shape: O2's global register cache is a significant win
	// over O0; O3 adds a further modest gain.
	if rel[dbt.O2] <= rel[dbt.O0] {
		t.Fatalf("global register cache did not help: O2 %.3f <= O0 %.3f", rel[dbt.O2], rel[dbt.O0])
	}
	if rel[dbt.O3] < rel[dbt.O2]*0.97 {
		t.Fatalf("register bias regressed badly: O3 %.3f vs O2 %.3f", rel[dbt.O3], rel[dbt.O2])
	}
}

func TestCachesAndPredictorCount(t *testing.T) {
	bin := bench(t, "lbm")
	m, err := perf.MeasureNative(bin, isa.X86, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.Loads == 0 || m.Counts.Stores == 0 || m.Counts.Branches == 0 {
		t.Fatalf("instruction mix empty: %+v", m.Counts)
	}
	if m.Counts.Returns == 0 || m.Counts.Calls == 0 {
		t.Fatalf("call structure empty: %+v", m.Counts)
	}
}

func TestRATPenaltyScalesWithReturns(t *testing.T) {
	// Two identical VM runs, one with a tiny RAT: more return misses
	// means retranslation work, but the per-return penalty itself is
	// charged identically; the *system* effect shows in VM stats.
	bin := bench(t, "libquantum")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	_, _, vm, err := perf.MeasureVM(bin, isa.X86, cfg, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vm.RATOf(isa.X86).Lookups == 0 {
		t.Fatal("no RAT activity")
	}
	missRate := float64(vm.RATOf(isa.X86).Misses) / float64(vm.RATOf(isa.X86).Lookups)
	if missRate > 0.01 {
		t.Fatalf("512-entry RAT miss rate %.4f; paper expects ~0", missRate)
	}
}
