package dbt

import (
	"reflect"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/workload"
)

// TestTranslateUnitReusesScratch pins the translator's output storage: a
// VM builds every unit in its own scratch unit, and a unit published to a
// shared cache is a copy that later translations leave alone.
func TestTranslateUnitReusesScratch(t *testing.T) {
	bin, err := workload.Compile(workload.Profiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range isa.Kinds {
		units := NewUnitCache(DefaultUnitCacheBytes)
		cfg := DefaultConfig()
		cfg.DualTranslate = false
		cfg.SharedUnits = units
		vm, err := New(bin, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two units translated back to back come out in the same storage.
		base := vm.caches[k].NextAddr(vm.unitAlign())
		var prev *unitEntry
		for _, fn := range bin.Funcs[:2] {
			u, err := vm.translateUnit(k, fn, fn.Entry[k], base)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil && u != prev {
				t.Errorf("%s: consecutive translateUnit calls returned %p and %p, want one scratch unit", k, prev, u)
			}
			prev = u
		}

		// Every unit published so far keeps its bytes, traps and ranges
		// while the VM translates the rest of the program.
		type published struct {
			code    []byte
			traps   []unitTrap
			covered [][2]uint32
		}
		want := map[*unitEntry]published{}
		units.mu.Lock()
		for _, e := range units.entries {
			want[e] = published{
				code:    append([]byte(nil), e.code...),
				traps:   append([]unitTrap(nil), e.traps...),
				covered: append([][2]uint32(nil), e.covered...),
			}
		}
		units.mu.Unlock()
		if len(want) == 0 {
			t.Fatalf("%s: boot published no unit", k)
		}
		for _, fn := range bin.Funcs {
			if _, err := vm.EnsureTranslated(k, fn.Entry[k]); err != nil {
				t.Fatal(err)
			}
		}
		if got := units.Stats().Installs; got <= uint64(len(want)) {
			t.Fatalf("%s: %d installs after translating every function, want more than %d", k, got, len(want))
		}
		for e, w := range want {
			got := published{code: e.code, traps: e.traps, covered: e.covered}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("%s: a published unit changed after later translations", k)
			}
		}
	}
}
