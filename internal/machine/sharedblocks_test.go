package machine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// straightLine is a block of register-only code ending in a halt; imm is
// the immediate of its add, the byte a fork patches.
func straightLine(imm int32) func(a *isa.Asm) {
	return func(a *isa.Asm) {
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.Reg(0)), Src: isa.I(1)})
		a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(isa.Reg(0)), Src: isa.I(imm)})
		a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.Reg(1)), Src: isa.I(5)})
		a.Emit(isa.Inst{Op: isa.OpHlt})
	}
}

func assemble(t *testing.T, k isa.Kind, build func(a *isa.Asm)) []byte {
	t.Helper()
	a := isa.NewAsm(k, textBase)
	build(a)
	code, _, err := a.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return code
}

// undecodable returns bytes that fail to decode on ISA k.
func undecodable(t *testing.T, k isa.Kind) []byte {
	t.Helper()
	b := []byte{0x06, 0x06, 0x06, 0x06} // no x86 instruction starts with 0x06
	if k == isa.ARM {
		b = []byte{0xff, 0xff, 0xff, 0xff} // condition nibble 0xF is undefined
	}
	var in isa.Inst
	if err := isa.Decode(k, b, textBase, &in); err == nil {
		t.Fatalf("%s: %x decodes", k, b)
	}
	return b
}

// snapshotText freezes a memory holding code at textBase (writable, so
// forks can patch it) and a stack.
func snapshotText(code []byte) *mem.Snapshot {
	ram := mem.New()
	ram.Map("text", textBase, mem.PageSize, mem.PermRWX)
	ram.WriteForce(textBase, code)
	ram.Map("stack", stackTop-stackSize, stackSize, mem.PermRW)
	return ram.Snapshot()
}

// forkMachine returns a machine over a fork of s that shares tab.
func forkMachine(k isa.Kind, s *mem.Snapshot, tab *SharedBlocks) *Machine {
	m := New(k, s.Fork())
	m.ShareBlocks(tab)
	return m
}

// runMatchesStep restarts m at textBase, runs it, and requires the result
// to equal single-stepping the same bytes from the same state: registers,
// PC, step count and error text. The programs write no memory, so the
// reference may step over m's own.
func runMatchesStep(t *testing.T, who string, m *Machine) State {
	t.Helper()
	m.State = State{ISA: m.ISA, PC: textBase}
	m.SetSP(stackTop - 16)
	ref := New(m.ISA, m.Mem)
	ref.State = m.State
	_, err := m.Run(1000)
	var refErr error
	for ref.Steps < 1000 && !ref.Halted && refErr == nil {
		refErr = ref.Step()
	}
	if fmt.Sprint(err) != fmt.Sprint(refErr) || m.State != ref.State {
		t.Fatalf("%s: Run and Step diverged:\nrun  %+v err %v\nstep %+v err %v",
			who, m.State, err, ref.State, refErr)
	}
	return m.State
}

// checkDecodes requires every block m has cached to be exactly what a
// private decode of m's own live bytes at its PC produces.
func checkDecodes(t *testing.T, who string, m *Machine) {
	t.Helper()
	for _, k := range isa.Kinds {
		for pc, b := range m.blocks.blocks[k] {
			win := make([]byte, BlockCap*MaxInstLen)
			n, err := m.Mem.FetchInto(pc, win)
			if err != nil {
				t.Fatalf("%s: fetch %#x: %v", who, pc, err)
			}
			insts, err := isa.DecodeBlock(k, win[:n], pc, nil, BlockCap)
			if err != nil {
				t.Fatalf("%s: decode %#x: %v", who, pc, err)
			}
			fused, _ := isa.FuseBlock(insts, nil)
			last := insts[len(insts)-1]
			if !reflect.DeepEqual(b.Insts, insts) || !reflect.DeepEqual(b.Fused, fused) ||
				b.lo != pc || b.hi != last.Addr+uint32(last.Size) {
				t.Fatalf("%s: cached %s block at %#x [%#x, %#x) is not the decode of its own bytes",
					who, k, pc, b.lo, b.hi)
			}
		}
	}
}

// TestSharedBlocksFollowEachForksBytes: two machines over forks of one
// memory snapshot share a table and both decode a block; the second is
// served from the table. Then one rewrites a byte inside the block. Each
// must go on executing its own bytes, matching Step, and the other's
// decode must be untouched: a hit needs the live bytes to equal the
// entry's, and an evicted shared block's storage is never recycled into
// the evicting machine's next decode.
func TestSharedBlocksFollowEachForksBytes(t *testing.T) {
	for _, k := range isa.Kinds {
		t.Run(k.String(), func(t *testing.T) {
			orig := assemble(t, k, straightLine(2))
			patched := assemble(t, k, straightLine(7))
			if len(orig) != len(patched) {
				t.Fatal("patch changed the code size")
			}
			var diff []int
			for i := range orig {
				if orig[i] != patched[i] {
					diff = append(diff, i)
				}
			}
			if len(diff) == 0 {
				t.Fatal("patch changed no byte")
			}
			s := snapshotText(orig)
			tab := new(SharedBlocks)
			a, b := forkMachine(k, s, tab), forkMachine(k, s, tab)
			runMatchesStep(t, "a", a)
			if st := runMatchesStep(t, "b", b); st.Regs[0] != 3 {
				t.Fatalf("b: r0 = %d, want 3", st.Regs[0])
			}
			if a.BlockStats().SharedHits != 0 || b.BlockStats().SharedHits != 1 {
				t.Fatalf("shared hits a=%d b=%d, want 0 and 1 (b reuses a's decode)",
					a.BlockStats().SharedHits, b.BlockStats().SharedHits)
			}
			if a.BlockStats().Misses != 1 || b.BlockStats().Misses != 1 {
				t.Fatal("a table hit must still count as the machine's own miss")
			}

			// a rewrites the add's immediate in its own memory only.
			lo, hi := diff[0], diff[len(diff)-1]+1
			if err := a.Mem.Write(textBase+uint32(lo), patched[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if st := runMatchesStep(t, "a after its patch", a); st.Regs[0] != 8 {
				t.Fatalf("a: r0 = %d, want 8 from its patched bytes", st.Regs[0])
			}
			checkDecodes(t, "a", a)
			if st := runMatchesStep(t, "b after a's patch", b); st.Regs[0] != 3 {
				t.Fatalf("b: r0 = %d, want 3 from its own bytes", st.Regs[0])
			}
			checkDecodes(t, "b", b)

			// A late sibling with the original bytes must not take a's
			// patched decode, and finds the original one beside it.
			c := forkMachine(k, s, tab)
			if st := runMatchesStep(t, "c", c); st.Regs[0] != 3 {
				t.Fatalf("c: r0 = %d, want 3", st.Regs[0])
			}
			checkDecodes(t, "c", c)
			if c.BlockStats().SharedHits != 1 || len(tab.lookup(k, textBase)) != 2 {
				t.Fatalf("c: %d shared hits over %d versions, want 1 over 2 (original and patched)",
					c.BlockStats().SharedHits, len(tab.lookup(k, textBase)))
			}
		})
	}
}

// TestSharedBlocksSkipDecodeFailureEnds: a block that ended at a decode
// failure has an extent set by the bytes after it, so it is never
// published. A sibling that made those bytes decodable must decode its
// own, longer block instead of taking the short one.
func TestSharedBlocksSkipDecodeFailureEnds(t *testing.T) {
	for _, k := range isa.Kinds {
		t.Run(k.String(), func(t *testing.T) {
			head := assemble(t, k, func(a *isa.Asm) {
				a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.Reg(0)), Src: isa.I(1)})
				a.Emit(isa.Inst{Op: isa.OpAdd, Dst: isa.R(isa.Reg(0)), Src: isa.I(2)})
			})
			s := snapshotText(append(bytes.Clone(head), undecodable(t, k)...))
			tab := new(SharedBlocks)
			a, b := forkMachine(k, s, tab), forkMachine(k, s, tab)
			runMatchesStep(t, "a", a) // decodes head, then fails past it
			if a.Halted {
				t.Fatal("a ran past undecodable bytes")
			}

			// b makes the bytes after the block decodable, then runs.
			tail := assemble(t, k, straightLine(4))
			if err := b.Mem.Write(textBase+uint32(len(head)), tail); err != nil {
				t.Fatal(err)
			}
			if st := runMatchesStep(t, "b", b); !st.Halted {
				t.Fatal("b did not reach its halt")
			}
			if b.BlockStats().SharedHits != 0 {
				t.Fatal("b took a block that ended at a decode failure from the table")
			}
			checkDecodes(t, "b", b)
			runMatchesStep(t, "a again", a)
			checkDecodes(t, "a", a)
		})
	}
}

// TestSharedBlocksDropAllPastCap: publishing past maxCachedBlocks restarts
// the table on both ISAs, while machines keep executing the wrappers they
// hold and a new sibling decodes afresh.
func TestSharedBlocksDropAllPastCap(t *testing.T) {
	s := snapshotText(assemble(t, isa.X86, loopProgram(50)))
	tab := new(SharedBlocks)
	a := forkMachine(isa.X86, s, tab)
	runMatchesStep(t, "a", a)
	armPC := uint32(textBase)
	tab.publish(isa.ARM, armPC, &sharedBlock{})
	published := tab.n[isa.X86]
	if published == 0 {
		t.Fatal("a published nothing")
	}
	for pc := uint32(0); tab.n[isa.X86] < maxCachedBlocks; pc += 4 {
		tab.publish(isa.X86, 0x7000_0000+pc, &sharedBlock{})
	}
	tab.publish(isa.X86, 0x6000_0000, &sharedBlock{})
	if n := tab.n[isa.X86]; n != 1 || len(tab.blocks[isa.X86]) != 1 {
		t.Fatalf("x86 table holds %d blocks past the cap, want 1 (restarted)", n)
	}
	if tab.lookup(isa.ARM, armPC) != nil || tab.lookup(isa.X86, textBase) != nil || tab.n[isa.ARM] != 0 {
		t.Fatal("entries survived the drop-all")
	}
	if st := runMatchesStep(t, "a after the drop", a); st.Regs[isa.ECX] != 0 {
		t.Fatalf("a: ecx = %d after the loop", st.Regs[isa.ECX])
	}
	b := forkMachine(isa.X86, s, tab)
	runMatchesStep(t, "b", b)
	if b.BlockStats().SharedHits != 0 {
		t.Fatal("b hit entries the drop-all removed")
	}
	if tab.n[isa.X86] != 1+published {
		t.Fatalf("table holds %d blocks, want b's %d republished", tab.n[isa.X86], published)
	}
}
