package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// memoReaders are the experiments that read the census or window-run
// memo, in registry order.
var memoReaders = []string{"fig3", "fig4", "table2", "fig5", "fig8",
	"fig9", "fig10", "fig11", "fig13", "fig14", "httpd"}

// quickOutput is one experiment's printed text and JSON rows.
type quickOutput struct {
	text, rows string
}

// runQuick runs e on s with its own output buffer.
func runQuick(t *testing.T, s *Suite, e Experiment) quickOutput {
	t.Helper()
	var buf bytes.Buffer
	s.Out = &buf
	res, err := Run(context.Background(), s, []Experiment{e}, Options{})
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	rows, err := json.Marshal(res[0].Rows)
	if err != nil {
		t.Fatal(err)
	}
	return quickOutput{text: buf.String(), rows: string(rows)}
}

var (
	sharedOnce  sync.Once
	sharedSuite *Suite
	sharedOut   map[string]quickOutput
)

// sharedQuickRun runs the whole quick registry in order on one Suite, as
// cmd/hipstr-bench and the paper-suite benchmark do, once per test binary.
func sharedQuickRun(t *testing.T) (*Suite, map[string]quickOutput) {
	t.Helper()
	sharedOnce.Do(func() {
		s := QuickSuite(nil)
		out := map[string]quickOutput{}
		for _, e := range All() {
			out[e.Name()] = runQuick(t, s, e)
		}
		sharedSuite, sharedOut = s, out
	})
	if sharedSuite == nil {
		t.Fatal("shared quick run failed")
	}
	return sharedSuite, sharedOut
}

func memoLen[K comparable, V any](m *memo[K, V]) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// TestSharedSuiteMatchesFreshSuites is the memo's reference check: every
// memo reader prints the same text and returns the same rows on the
// shared Suite as on a fresh Suite of its own.
func TestSharedSuiteMatchesFreshSuites(t *testing.T) {
	_, shared := sharedQuickRun(t)
	for _, name := range memoReaders {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("no experiment %s", name)
		}
		fresh := runQuick(t, QuickSuite(nil), e)
		if fresh.text != shared[name].text {
			t.Errorf("%s: printed text differs\n--- shared ---\n%s--- fresh ---\n%s",
				name, shared[name].text, fresh.text)
		}
		if fresh.rows != shared[name].rows {
			t.Errorf("%s: rows differ\nshared: %s\nfresh:  %s", name, shared[name].rows, fresh.rows)
		}
	}
}

// TestSuiteSimulatesEachConfigOnce counts the memo's entries: the quick
// registry runs 42 distinct window simulations and 4 gadget censuses, and
// Fig 14 alone runs 3 per benchmark (native, PSR = 2 MB, 256 KB).
func TestSuiteSimulatesEachConfigOnce(t *testing.T) {
	s, _ := sharedQuickRun(t)
	if n := memoLen(&s.runs); n != 42 {
		t.Errorf("quick registry ran %d window simulations, want 42", n)
	}
	if n := memoLen(&s.censuses); n != 4 {
		t.Errorf("quick registry took %d censuses, want 4", n)
	}

	fig14, _ := ByName("fig14")
	alone := QuickSuite(nil)
	runQuick(t, alone, fig14)
	if n := memoLen(&alone.runs); n != 9 {
		t.Errorf("fig14 alone ran %d window simulations, want 9", n)
	}

	var m memo[string, int]
	calls := 0
	boom := func() (int, error) {
		calls++
		panic("synthetic computation failure")
	}
	for i := 0; i < 3; i++ {
		v, err := m.get("key", boom)
		if err == nil || !strings.Contains(err.Error(), "synthetic computation failure") ||
			!strings.Contains(err.Error(), "goroutine") || v != 0 {
			t.Fatalf("call %d: got (%d, %v), want the panic with its stack as the error", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("panicking computation ran %d times, want once", calls)
	}
}
