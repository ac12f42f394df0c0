package compiler

import (
	"fmt"
	"sort"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/prog"
)

// funcAlign is the alignment of function entry points in both text
// sections.
const funcAlign = 16

func alignUp(v uint32, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

// analysis carries the per-function results shared by both ISA lowerings.
type analysis struct {
	loops  []*loopInfo
	loopOf []*loopInfo
	live   *prog.Liveness
}

// Compile lowers mod to both ISAs and produces the fat binary with its
// extended symbol table.
func Compile(mod *prog.Module) (*fatbin.Binary, error) {
	return compile(mod, 0)
}

// CompileDiversified produces an Isomeron-style program variant: the same
// module with per-function basic-block layout shuffled and random nops
// inserted at block boundaries, so intra-function code addresses differ
// from the canonical compilation while semantics are identical.
func CompileDiversified(mod *prog.Module, layoutSeed int64) (*fatbin.Binary, error) {
	if layoutSeed == 0 {
		layoutSeed = 1
	}
	return compile(mod, layoutSeed)
}

func compile(mod *prog.Module, layoutSeed int64) (*fatbin.Binary, error) {
	if err := mod.Validate(); err != nil {
		return nil, err
	}
	bin := &fatbin.Binary{
		Module:     mod.Name,
		FuncByName: make(map[string]int),
	}

	// Data section layout.
	globalOff := make([]uint32, len(mod.Globals))
	var dataLen uint32
	for i, g := range mod.Globals {
		globalOff[i] = dataLen
		dataLen = alignUp(dataLen+g.Size, 4)
	}
	bin.Data = make([]byte, dataLen)
	for i, g := range mod.Globals {
		copy(bin.Data[globalOff[i]:], g.Init)
	}
	gaddr := func(gi int) uint32 { return fatbin.DataBase + globalOff[gi] }

	// Per-function analysis and common frame layout.
	metas := make([]*fatbin.FuncMeta, len(mod.Funcs))
	anas := make([]*analysis, len(mod.Funcs))
	for i, f := range mod.Funcs {
		loops := findLoops(f)
		live := prog.ComputeLiveness(f)
		chooseBindings(f, loops, live, layoutSeed)
		anas[i] = &analysis{
			loops:  loops,
			loopOf: innermostLoop(f, loops),
			live:   live,
		}
		metas[i] = layoutFrame(f, i, anas[i])
		bin.FuncByName[f.Name] = i
	}
	bin.Funcs = metas

	// Lower each ISA: a sizing pass (call targets unknown) fixes the
	// layout, then the final pass encodes real targets. Sizes must agree.
	// Every function goes through one assembler: each lowering's code is
	// measured or copied into the text, and its labels read, before the
	// next one resets it.
	asm := isa.NewAsm(isa.X86, 0)
	for _, k := range isa.Kinds {
		entries := make(map[string]uint32, len(mod.Funcs))
		for _, f := range mod.Funcs {
			entries[f.Name] = 0
		}
		cur := fatbin.TextBase(k)
		sizes := make([]uint32, len(mod.Funcs))
		for i, f := range mod.Funcs {
			lo := newLowerer(asm, k, mod, f, metas[i], cur, anas[i].loops, anas[i].loopOf, entries, gaddr)
			lo.diversify(layoutSeed)
			code, _, err := lo.lower()
			if err != nil {
				return nil, fmt.Errorf("compiler: %s/%s sizing: %w", f.Name, k, err)
			}
			metas[i].Entry[k] = cur
			metas[i].Start[k] = cur
			sizes[i] = uint32(len(code))
			cur = alignUp(cur+uint32(len(code)), funcAlign)
		}
		for _, f := range mod.Funcs {
			entries[f.Name] = metas[bin.FuncByName[f.Name]].Entry[k]
		}
		text := make([]byte, cur-fatbin.TextBase(k))
		for i, f := range mod.Funcs {
			lo := newLowerer(asm, k, mod, f, metas[i], metas[i].Entry[k], anas[i].loops, anas[i].loopOf, entries, gaddr)
			lo.diversify(layoutSeed)
			code, labels, err := lo.lower()
			if err != nil {
				return nil, fmt.Errorf("compiler: %s/%s: %w", f.Name, k, err)
			}
			if uint32(len(code)) != sizes[i] {
				return nil, fmt.Errorf("compiler: %s/%s: unstable size %d -> %d", f.Name, k, sizes[i], len(code))
			}
			off := metas[i].Entry[k] - fatbin.TextBase(k)
			copy(text[off:], code)
			metas[i].End[k] = metas[i].Entry[k] + uint32(len(code))
			fillBlockAddrs(metas[i], k, f, labels)
			fillCallSites(metas[i], k, labels)
		}
		bin.Text[k] = text
	}

	// Block live-in homes (common to both ISAs, with per-ISA register
	// residence from the loop bindings).
	for i, f := range mod.Funcs {
		fillLiveIn(metas[i], f, anas[i])
	}

	if _, ok := bin.FuncByName["main"]; ok {
		bin.EntryFunc = "main"
	} else if len(mod.Funcs) > 0 {
		bin.EntryFunc = mod.Funcs[0].Name
	}
	return bin, nil
}

// layoutFrame computes the common stack frame organization of f.
func layoutFrame(f *prog.Func, index int, ana *analysis) *fatbin.FuncMeta {
	maxOut := 0
	hasCallIn := make(map[int]bool)
	for _, b := range f.Blocks {
		for i := range b.Ins {
			in := &b.Ins[i]
			switch in.Kind {
			case prog.OpCall, prog.OpCallInd:
				if len(in.Args) > maxOut {
					maxOut = len(in.Args)
				}
				hasCallIn[b.ID] = true
			case prog.OpSyscall:
				hasCallIn[b.ID] = true
			}
		}
	}
	m := &fatbin.FuncMeta{
		Name:    f.Name,
		Index:   index,
		NumArgs: f.NParams,
		NVRegs:  f.NVRegs,
		NSlots:  f.NSlots,
		RetReg:  [2]isa.Reg{isa.RetReg(isa.X86), isa.RetReg(isa.ARM)},
	}
	m.OutArgOff = 0
	m.LocalOff = 4 * uint32(maxOut)
	m.SpillOff = m.LocalOff + 4*uint32(f.NSlots)
	nSpill := f.NVRegs - f.NParams
	if nSpill < 0 {
		nSpill = 0
	}
	m.SaveOff = m.SpillOff + 4*uint32(nSpill)
	m.FrameSize = m.SaveOff + 4*fatbin.SaveAreaWords
	m.FixedSlot = make([]bool, f.NSlots)
	for s := range f.FixedSlots {
		m.FixedSlot[s] = true
	}
	// Callee-saved registers: the union of loop-binding registers, per ISA.
	for _, k := range isa.Kinds {
		used := map[isa.Reg]bool{}
		for _, l := range ana.loops {
			for _, r := range l.bind[k] {
				used[r] = true
			}
		}
		var regs []isa.Reg
		for r := range used {
			regs = append(regs, r)
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		if len(regs) > fatbin.SaveAreaWords {
			regs = regs[:fatbin.SaveAreaWords]
		}
		m.SavedRegs[k] = regs
	}
	// Block skeletons (addresses filled after lowering).
	m.Blocks = make([]fatbin.BlockMeta, len(f.Blocks))
	for i, b := range f.Blocks {
		m.Blocks[i] = fatbin.BlockMeta{
			ID:      b.ID,
			InLoop:  ana.loopOf[b.ID] != nil,
			HasCall: hasCallIn[b.ID],
		}
	}
	return m
}

// fillBlockAddrs records per-ISA block address ranges from the assembler's
// label table. Edge stubs emitted after a block's terminator are attributed
// to that block.
func fillBlockAddrs(m *fatbin.FuncMeta, k isa.Kind, f *prog.Func, labels map[string]uint32) {
	for i := range m.Blocks {
		if i == 0 {
			// The prologue belongs to the entry block.
			m.Blocks[i].Addr[k] = m.Start[k]
		} else {
			m.Blocks[i].Addr[k] = labels[blockLabel(m.Blocks[i].ID)]
		}
		if i+1 < len(m.Blocks) {
			m.Blocks[i].End[k] = labels[blockLabel(m.Blocks[i+1].ID)]
		} else {
			m.Blocks[i].End[k] = labels["epi"]
		}
	}
}

// fillCallSites records the per-ISA return addresses of every call site.
func fillCallSites(m *fatbin.FuncMeta, k isa.Kind, labels map[string]uint32) {
	for i := 0; ; i++ {
		addr, ok := labels[callSiteLabel(i)]
		if !ok {
			break
		}
		if i >= len(m.CallSites) {
			m.CallSites = append(m.CallSites, fatbin.CallSite{})
		}
		m.CallSites[i].RetAddr[k] = addr
	}
}

// fillLiveIn records, per block, where each live-in value resides at block
// entry on each ISA: its canonical frame home plus, inside loops, the
// loop-scoped register that currently holds it.
func fillLiveIn(m *fatbin.FuncMeta, f *prog.Func, ana *analysis) {
	for i := range m.Blocks {
		bid := m.Blocks[i].ID
		var homes []fatbin.VarHome
		for _, v := range ana.live.In[bid].Members() {
			h := fatbin.VarHome{
				VReg:     int32(v),
				FrameOff: int32(m.HomeOff(int32(v))),
				Reg:      [2]isa.Reg{isa.NoReg, isa.NoReg},
			}
			if l := ana.loopOf[bid]; l != nil {
				for _, k := range isa.Kinds {
					if r, ok := l.bind[k][v]; ok {
						h.Reg[k] = r
					}
				}
			}
			homes = append(homes, h)
		}
		m.Blocks[i].LiveIn = homes
	}
}
