package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hipstr/internal/fatbin"
	"hipstr/internal/telemetry"
)

// engineSubset keeps the determinism test affordable: a gadget-mining
// driver, the Table2 -> Fig7 dependency chain, and a size×benchmark sweep.
const engineSubset = "fig3,table2,fig7,fig11"

func runEngine(t *testing.T, parallel int) (string, []Result, *telemetry.Telemetry, string) {
	t.Helper()
	var buf bytes.Buffer
	s := QuickSuite(&buf)
	s.Parallel = parallel
	s.Telemetry = telemetry.New()
	exps, err := Select(engineSubset)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	results, err := Run(context.Background(), s, exps, Options{ResultsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), results, s.Telemetry, dir
}

// TestParallelMatchesSerial is the engine's core guarantee: rows and
// printed tables are byte-identical at -parallel=1 and -parallel=N.
func TestParallelMatchesSerial(t *testing.T) {
	serialOut, serialRes, _, _ := runEngine(t, 1)
	parOut, parRes, tel, dir := runEngine(t, 4)
	if serialOut != parOut {
		t.Fatalf("printed output differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialOut, parOut)
	}
	if len(serialRes) != len(parRes) {
		t.Fatalf("result count differs: %d vs %d", len(serialRes), len(parRes))
	}
	for i := range serialRes {
		if serialRes[i].Name != parRes[i].Name {
			t.Fatalf("result order differs: %s vs %s", serialRes[i].Name, parRes[i].Name)
		}
		a, err := json.Marshal(serialRes[i].Rows)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(parRes[i].Rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s rows differ:\n%s\nvs\n%s", serialRes[i].Name, a, b)
		}
	}

	// Result artifacts: one loadable JSON per experiment.
	for _, name := range strings.Split(engineSubset, ",") {
		data, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%s artifact: %v", name, err)
		}
		if res.Name != name || res.Rows == nil || len(res.Series) == 0 {
			t.Fatalf("%s artifact malformed: %+v", name, res)
		}
	}

	// Telemetry: engine counters plus per-figure series gauges.
	snap := tel.Snapshot()
	if got := snap.Counters["bench.experiments.run"]; got != 4 {
		t.Fatalf("bench.experiments.run = %d, want 4", got)
	}
	var series int
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "experiments.fig3.") || strings.HasPrefix(name, "experiments.fig11.") {
			series++
		}
	}
	if series == 0 {
		t.Fatalf("no per-figure series gauges published: %v", snap.Gauges)
	}
}

// seriesTech is a Stringer sweep key, like attack.Technique.
type seriesTech int

func (t seriesTech) String() string { return [...]string{"PSR+Isomeron", "HIPStR"}[t] }

// publishedGauges flattens rows the way Run publishes them.
func publishedGauges(rows any) map[string]float64 {
	r := telemetry.NewRegistry()
	r.PublishSeries("x", seriesOf(rows))
	return r.Snapshot().Gauges
}

// TestSeriesOfNamesFields pins the engine's row flattening, the one naming
// rule behind every experiments.* gauge and result-artifact series: rows
// label by their first string field (sanitized), and every bool, number,
// float slice, float-valued map and nested struct becomes a lowercased
// field; rows without a string field label by their leading field's value.
func TestSeriesOfNamesFields(t *testing.T) {
	type perISA struct{ X86, ARM float64 }
	type row struct {
		Bench  string
		O3     float64
		Safe   bool
		PerISA perISA
		Curve  []float64
		ByTech map[seriesTech]float64
		Note   string
		hidden float64
	}
	rows := []row{
		{Bench: "libquantum", O3: 0.9, Safe: true, Note: "not a label"},
		{Bench: "gcc+ref v1.2/x", O3: 0.8, PerISA: perISA{1, 2},
			Curve: []float64{5, 6}, ByTech: map[seriesTech]float64{0: 3, 1: 4}, hidden: 9},
	}
	want := map[string]float64{
		"x.libquantum.o3":                      0.9,
		"x.libquantum.safe":                    1,
		"x.libquantum.perisa.x86":              0,
		"x.libquantum.perisa.arm":              0,
		"x.gcc-ref-v1-2-x.o3":                  0.8,
		"x.gcc-ref-v1-2-x.safe":                0,
		"x.gcc-ref-v1-2-x.perisa.x86":          1,
		"x.gcc-ref-v1-2-x.perisa.arm":          2,
		"x.gcc-ref-v1-2-x.curve.0":             5,
		"x.gcc-ref-v1-2-x.curve.1":             6,
		"x.gcc-ref-v1-2-x.bytech.psr-isomeron": 3,
		"x.gcc-ref-v1-2-x.bytech.hipstr":       4,
	}
	checkGauges(t, publishedGauges(rows), want)

	// Sweep rows: an int, a uint and a Stringer leading field label the
	// point; a single struct is one point; rows without numbers vanish.
	type ratRow struct {
		Entries int
		CPI     float64
	}
	type cacheRow struct {
		KB      uint32
		Flushes float64
	}
	type curve struct {
		Technique seriesTech
		P         []float64
	}
	type single struct {
		Gadgets int
		Rate    float64
	}
	type textOnly struct{ Name string }
	checkGauges(t, publishedGauges([]ratRow{{32, 1.5}, {2048, 1.25}}), map[string]float64{
		"x.32.entries": 32, "x.32.cpi": 1.5, "x.2048.entries": 2048, "x.2048.cpi": 1.25,
	})
	checkGauges(t, publishedGauges([]cacheRow{{16, 66}}), map[string]float64{
		"x.16.kb": 16, "x.16.flushes": 66,
	})
	checkGauges(t, publishedGauges([]curve{{0, []float64{0.5}}, {1, []float64{0.25}}}), map[string]float64{
		"x.PSR-Isomeron.technique": 0, "x.PSR-Isomeron.p.0": 0.5,
		"x.HIPStR.technique": 1, "x.HIPStR.p.0": 0.25,
	})
	checkGauges(t, publishedGauges(single{422, 0.5}), map[string]float64{
		"x.422.gadgets": 422, "x.422.rate": 0.5,
	})
	checkGauges(t, publishedGauges([]textOnly{{"a"}}), map[string]float64{})
}

func checkGauges(t *testing.T, got, want map[string]float64) {
	t.Helper()
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (present=%v), want %v", name, g, ok, v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d gauges, want %d: %v", len(got), len(want), got)
	}
}

// TestBinCacheSingleflight hammers the compile cache from many goroutines
// (run with -race): every caller must observe the same binary per profile,
// compiled exactly once.
func TestBinCacheSingleflight(t *testing.T) {
	s := QuickSuite(io.Discard)
	const per = 8
	bins := make([]*fatbin.Binary, per*len(s.Profiles))
	var wg sync.WaitGroup
	for g := 0; g < len(bins); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := s.bin(s.Profiles[g%len(s.Profiles)])
			if err != nil {
				t.Error(err)
				return
			}
			bins[g] = b
		}(g)
	}
	wg.Wait()
	for g, b := range bins {
		if b == nil {
			t.Fatalf("goroutine %d got nil binary", g)
		}
		if want := bins[g%len(s.Profiles)]; b != want {
			t.Fatalf("goroutine %d got a different binary instance for %s",
				g, s.Profiles[g%len(s.Profiles)].Name)
		}
	}
	for _, p := range s.Profiles {
		if c, err := s.compile(p); err != nil || c.mod == nil {
			t.Fatalf("module %s not cached (%v)", p.Name, err)
		}
	}
}

// TestForEachCancellation cancels mid-sweep and checks the runner stops
// dispatching, returns the cancellation, and leaks no goroutines.
func TestForEachCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	s := &Suite{Parallel: 4}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	var mu sync.Mutex
	err := s.forEach(ctx, 64, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 0 {
			cancel()
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	n := ran
	mu.Unlock()
	if n >= 64 {
		t.Fatalf("all %d cells ran despite cancellation", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, got)
	}
}

// TestDriverPreCanceled checks cancellation is honored before any cell of
// a real driver runs.
func TestDriverPreCanceled(t *testing.T) {
	s := QuickSuite(io.Discard)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Fig9(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig9 err = %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, s, All(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
}

// TestForEachPanicRecovery checks a panicking cell fails its sweep with
// the lowest failing index's error — and the process survives, serial or
// parallel.
func TestForEachPanicRecovery(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		s := &Suite{Parallel: parallel}
		err := s.forEach(context.Background(), 8, func(i int) error {
			if i == 1 || i == 5 {
				panic("synthetic cell failure")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 1 panicked") {
			t.Fatalf("parallel=%d: err = %v, want cell 1 panic", parallel, err)
		}
	}
}

// TestRunPanicContainment checks a panic at driver level (outside any
// cell) fails that experiment only; with ContinueOnError the rest of the
// registry still runs.
func TestRunPanicContainment(t *testing.T) {
	var buf bytes.Buffer
	s := QuickSuite(&buf)
	exps := []Experiment{
		{name: "boom", desc: "always panics",
			run: func(context.Context, *Suite) (any, error) { panic("driver exploded") }},
		{name: "fig7-after", desc: "runs after the panic",
			run: func(_ context.Context, s *Suite) (any, error) { return s.Fig7(30), nil }},
	}
	results, err := Run(context.Background(), s, exps, Options{ContinueOnError: true})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want contained boom panic", err)
	}
	if len(results) != 1 || results[0].Name != "fig7-after" {
		t.Fatalf("later experiment did not run: %+v", results)
	}
}

// TestRegistryOrder pins the registry to the paper's evaluation order and
// checks Select's subset and error behavior.
func TestRegistryOrder(t *testing.T) {
	want := []string{"fig3", "fig4", "table2", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "httpd"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.Name() != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.Name(), want[i])
		}
		if e.Description() == "" {
			t.Fatalf("%s has no description", e.Name())
		}
	}
	sub, err := Select(" fig12, fig4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name() != "fig4" || sub[1].Name() != "fig12" {
		t.Fatalf("Select did not preserve registry order: %v", sub)
	}
	if _, err := Select("fig99"); err == nil {
		t.Fatal("Select accepted an unknown experiment")
	}
}
