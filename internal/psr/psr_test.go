package psr

import (
	"reflect"
	"testing"
	"testing/quick"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/testprogs"
)

func mainMeta(t *testing.T) *fatbin.FuncMeta {
	t.Helper()
	bin, err := compiler.Compile(testprogs.Fib(5))
	if err != nil {
		t.Fatal(err)
	}
	return bin.Func("fib")
}

func buildMap(t *testing.T, seed int64, k isa.Kind, cfg Config) *Map {
	t.Helper()
	return NewRandomizer(seed, cfg).Build(mainMeta(t), k)
}

func TestMapOffsetsInjectiveAndInRange(t *testing.T) {
	for _, k := range isa.Kinds {
		m := buildMap(t, 1, k, DefaultConfig())
		seen := map[int32]bool{}
		for orig, to := range m.OffTo {
			if seen[to] {
				t.Fatalf("%s: offset %#x has duplicate target %#x", k, orig, to)
			}
			seen[to] = true
			if to < 0 || uint32(to)+4 > m.NewFrameSize {
				t.Fatalf("%s: relocated offset %#x outside frame (size %#x)", k, to, m.NewFrameSize)
			}
		}
		if m.NewFrameSize != m.Fn.FrameSize+m.RandSpace {
			t.Fatalf("%s: frame size arithmetic wrong", k)
		}
	}
}

func TestReturnAddressRelocated(t *testing.T) {
	m := buildMap(t, 2, isa.X86, DefaultConfig())
	canonical := int32(m.Fn.RetAddrOff())
	if m.RetOff == canonical {
		t.Fatal("return address not relocated")
	}
	if m.RetOff < ArgWindow || m.RetOff >= m.StageOff {
		t.Fatalf("return address offset %#x outside randomization span", m.RetOff)
	}
}

func TestRegisterRelocationInjective(t *testing.T) {
	for _, k := range isa.Kinds {
		for seed := int64(0); seed < 30; seed++ {
			m := buildMap(t, seed, k, DefaultConfig())
			regHosts := map[isa.Reg]isa.Reg{}
			stackHosts := map[int32]bool{}
			for i := 0; i < isa.NumRegs(k); i++ {
				l := m.RegTo[i]
				switch l.Kind {
				case LocReg:
					if prev, dup := regHosts[l.Reg]; dup {
						t.Fatalf("%s seed %d: r%d and r%d both live in r%d", k, seed, prev, i, l.Reg)
					}
					regHosts[l.Reg] = isa.Reg(i)
				case LocStack:
					if stackHosts[l.Off] {
						t.Fatalf("%s seed %d: duplicate stack home %#x", k, seed, l.Off)
					}
					stackHosts[l.Off] = true
				}
			}
		}
	}
}

func TestX86SpecialRegsNeverHostOthers(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		m := buildMap(t, seed, isa.X86, DefaultConfig())
		for i := 0; i < 8; i++ {
			l := m.RegTo[i]
			if l.Kind == LocReg && x86SpecialRegs[l.Reg] && l.Reg != isa.Reg(i) {
				t.Fatalf("seed %d: special register %s hosts r%d", seed, l.Reg.Name(isa.X86), i)
			}
		}
	}
}

func TestTranslatorTemporaryAlwaysAvailable(t *testing.T) {
	for _, k := range isa.Kinds {
		for seed := int64(0); seed < 50; seed++ {
			cfg := DefaultConfig()
			cfg.GlobalRegCache = 4 // maximum register-residency pressure
			m := buildMap(t, seed, k, cfg)
			need := 1 // the global register cache leaves one stack-relocated register
			if len(m.FreeRegs) < need {
				t.Fatalf("%s seed %d: only %d free translator temporaries", k, seed, len(m.FreeRegs))
			}
			// A free register must truly host nothing.
			for _, fr := range m.FreeRegs {
				for i := 0; i < 16; i++ {
					if l := m.RegTo[i]; l.Kind == LocReg && l.Reg == fr && isa.Reg(i) != fr {
						t.Fatalf("%s seed %d: free register %d hosts r%d", k, seed, fr, i)
					}
					if l := m.RegTo[i]; l.Kind == LocReg && l.Reg == fr && isa.Reg(i) == fr && fr != armTemp {
						t.Fatalf("%s seed %d: free register %d is identity-occupied", k, seed, fr)
					}
				}
			}
		}
	}
}

// TestRegisterBias checks the paper's -O3 register bias, at least three
// reg->reg relocations, on the O2/O3 config: its register cache gives it.
func TestRegisterBias(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m := buildMap(t, seed, isa.X86, DefaultConfig())
		regToReg := 0
		for i := 0; i < 8; i++ {
			l := m.RegTo[i]
			if l.Kind == LocReg && l.Reg != isa.Reg(i) {
				regToReg++
			}
		}
		if regToReg < 3 {
			t.Fatalf("seed %d: register bias produced only %d reg->reg relocations", seed, regToReg)
		}
	}
}

func TestNoBiasNoCacheSpillsEverything(t *testing.T) {
	cfg := Config{RandPages: 2}
	m := buildMap(t, 3, isa.X86, cfg)
	stack := 0
	for i := 0; i < 8; i++ {
		if m.RegTo[i].Kind == LocStack {
			stack++
		}
	}
	if stack < 4 {
		t.Fatalf("O0 map relocated only %d registers to stack", stack)
	}
}

func TestArgOffsetsDistinctWithinWindow(t *testing.T) {
	bin, _ := compiler.Compile(testprogs.ManyParams())
	fn := bin.Func("weigh")
	m := NewRandomizer(7, DefaultConfig()).Build(fn, isa.X86)
	if len(m.ArgOff) != 6 {
		t.Fatalf("want 6 arg offsets, got %d", len(m.ArgOff))
	}
	for i, a := range m.ArgOff {
		if a < 0 || a+4 > ArgWindow {
			t.Fatalf("arg %d offset %#x outside window", i, a)
		}
		for j, b := range m.ArgOff {
			if i != j && a == b {
				t.Fatalf("args %d and %d share offset %#x", i, j, a)
			}
		}
	}
}

func TestFixedSlotsStayPut(t *testing.T) {
	bin, _ := compiler.Compile(testprogs.AddressTaken())
	fn := bin.Func("main")
	m := NewRandomizer(9, DefaultConfig()).Build(fn, isa.X86)
	for s, fixed := range fn.FixedSlot {
		off := int32(fn.SlotOff(s))
		if fixed && m.OffTo[off] != off {
			t.Fatalf("fixed slot %d moved from %#x to %#x", s, off, m.OffTo[off])
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := buildMap(t, 42, isa.X86, DefaultConfig())
	b := buildMap(t, 42, isa.X86, DefaultConfig())
	if !reflect.DeepEqual(a.OffTo, b.OffTo) || a.RegTo != b.RegTo {
		t.Fatal("same seed produced different maps")
	}
	c := buildMap(t, 43, isa.X86, DefaultConfig())
	if reflect.DeepEqual(a.OffTo, c.OffTo) && a.RegTo == c.RegTo {
		t.Fatal("different seeds produced identical maps")
	}
}

func TestEntropyScalesWithRandPages(t *testing.T) {
	small := buildMap(t, 1, isa.X86, Config{RandPages: 2})
	big := buildMap(t, 1, isa.X86, Config{RandPages: 16})
	if small.EntropyBits < 12 || small.EntropyBits > 13.5 {
		t.Fatalf("8KiB entropy %.2f bits, want ~13", small.EntropyBits)
	}
	if big.EntropyBits <= small.EntropyBits+2.5 {
		t.Fatalf("64KiB entropy %.2f should exceed 8KiB entropy %.2f by ~3 bits",
			big.EntropyBits, small.EntropyBits)
	}
}

// TestMapInvariantsQuick drives the randomizer with arbitrary seeds and
// checks the structural invariants every map must satisfy: injective
// offset relocation inside the frame, injective register targets, fixed
// slots pinned, distinct argument offsets above the reserved window, and
// at least one translator temporary.
func TestMapInvariantsQuick(t *testing.T) {
	fn := mainMeta(t)
	f := func(seed int64, pages uint8, cache bool) bool {
		cfg := Config{RandPages: int(pages%15) + 2}
		if cache {
			cfg.GlobalRegCache = 3
		}
		for _, k := range isa.Kinds {
			m := NewRandomizer(seed, cfg).Build(fn, k)
			seen := map[int32]bool{}
			for orig, to := range m.OffTo {
				if seen[to] || to < 0 || uint32(to)+4 > m.NewFrameSize {
					return false
				}
				seen[to] = true
				if fnFixed(fn, orig) && to != orig {
					return false
				}
			}
			hosts := map[isa.Reg]bool{}
			for i := 0; i < isa.NumRegs(k); i++ {
				if l := m.RegTo[i]; l.Kind == LocReg {
					if hosts[l.Reg] {
						return false
					}
					hosts[l.Reg] = true
				}
			}
			argSeen := map[int32]bool{}
			for _, a := range m.ArgOff {
				if a < ArgReserved || a+4 > ArgWindow || argSeen[a] {
					return false
				}
				argSeen[a] = true
			}
			if len(m.FreeRegs) == 0 {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

func fnFixed(fn *fatbin.FuncMeta, off int32) bool {
	for s, fixed := range fn.FixedSlot {
		if fixed && int32(fn.SlotOff(s)) == off {
			return true
		}
	}
	return false
}

func quickCheck(f interface{}) error {
	return quick.Check(f, &quick.Config{MaxCount: 60})
}

func TestBuildPairSharesFrameGeometry(t *testing.T) {
	r := NewRandomizer(5, DefaultConfig())
	pair := r.BuildPair(mainMeta(t))
	if pair[isa.X86].NewFrameSize != pair[isa.ARM].NewFrameSize {
		t.Fatal("pair frame sizes differ — migration would break")
	}
	if pair[isa.X86].RetOff == pair[isa.ARM].RetOff {
		t.Log("note: identical ret offsets across ISAs (allowed, just unlikely)")
	}
}
