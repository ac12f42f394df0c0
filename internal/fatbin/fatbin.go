// Package fatbin defines the symmetrical fat binary produced by the
// multi-ISA compiler: one text section per ISA, a shared ISA-agnostic data
// section, a common stack frame organization, and the extended symbol
// table (Figure 2 of the paper) that records, per function and per basic
// block, the liveness and location information the PSR virtual machine and
// the migration engine consume.
package fatbin

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// Process address-space layout. The two text sections and the two code
// caches live at disjoint bases so region checks identify the ISA of any
// code address.
const (
	X86TextBase  = 0x08048000
	ARMTextBase  = 0x00400000
	DataBase     = 0x10000000
	HeapBase     = 0x20000000
	StackTop     = 0xBFF00000
	X86CacheBase = 0xC0000000
	ARMCacheBase = 0xD0000000
)

// TextBase returns the text section base for ISA k.
func TextBase(k isa.Kind) uint32 {
	if k == isa.X86 {
		return X86TextBase
	}
	return ARMTextBase
}

// CacheBase returns the code cache base for ISA k.
func CacheBase(k isa.Kind) uint32 {
	if k == isa.X86 {
		return X86CacheBase
	}
	return ARMCacheBase
}

// SaveAreaWords is the size of the common callee-save area, large enough
// for either ISA's callee-saved set.
const SaveAreaWords = 10

// VarHome records where a live virtual register resides at a block
// boundary: a canonical frame offset (its memory home) and, when the value
// is register-resident at block entry, the holding register per ISA.
type VarHome struct {
	VReg     int32
	FrameOff int32      // SP-relative memory home; -1 when none
	Reg      [2]isa.Reg // register residence per ISA; isa.NoReg = in memory
}

// InReg reports whether the value is register-resident on ISA k at the
// block boundary this home describes.
func (v VarHome) InReg(k isa.Kind) bool { return v.Reg[k] != isa.NoReg }

// BlockMeta is the per-basic-block entry of the extended symbol table.
type BlockMeta struct {
	ID      int
	Addr    [2]uint32 // block start per ISA
	End     [2]uint32 // first address past the block per ISA
	LiveIn  []VarHome // live values at block entry
	InLoop  bool
	HasCall bool
}

// CallSite records one call instruction's return point in both ISAs —
// the equivalence points at which suspended frames can be migrated.
type CallSite struct {
	RetAddr [2]uint32
}

// FuncMeta is the per-function entry of the extended symbol table. All
// offsets are SP-relative after the prologue's frame allocation; the frame
// layout is common to both ISAs:
//
//	[SP+0, OutArgOff+4*MaxOutArgs)  outgoing-argument build area
//	[LocalOff, +4*NSlots)           user locals ("fixed stack slots" when pinned)
//	[SpillOff, +4*NVRegs)           canonical vreg homes
//	[SaveOff,  +4*SaveAreaWords)    callee-save area
//	[FrameSize]                     return address word
//	[FrameSize+4+4*i]               incoming argument i
type FuncMeta struct {
	Name      string
	Index     int
	NumArgs   int
	NVRegs    int
	NSlots    int
	FrameSize uint32
	OutArgOff uint32
	LocalOff  uint32
	SpillOff  uint32
	SaveOff   uint32
	FixedSlot []bool    // per local slot: address-taken, not relocatable
	Entry     [2]uint32 // function entry per ISA
	Start     [2]uint32 // code range per ISA
	End       [2]uint32
	SavedRegs [2][]isa.Reg // callee-saved registers the function uses, per ISA
	RetReg    [2]isa.Reg
	Blocks    []BlockMeta
	CallSites []CallSite
}

// CallSiteByRet returns the call site whose ISA-k return address is ret.
func (f *FuncMeta) CallSiteByRet(k isa.Kind, ret uint32) (CallSite, bool) {
	for _, cs := range f.CallSites {
		if cs.RetAddr[k] == ret {
			return cs, true
		}
	}
	return CallSite{}, false
}

// RetAddrOff returns the SP-relative offset of the return address word.
func (f *FuncMeta) RetAddrOff() uint32 { return f.FrameSize }

// ArgOff returns the SP-relative offset of incoming argument i.
func (f *FuncMeta) ArgOff(i int) uint32 { return f.FrameSize + 4 + 4*uint32(i) }

// SlotOff returns the SP-relative offset of local slot s.
func (f *FuncMeta) SlotOff(s int) uint32 { return f.LocalOff + 4*uint32(s) }

// HomeOff returns the SP-relative offset of vreg v's canonical home.
// Parameters live in their incoming argument slots; all other vregs have a
// dedicated word in the spill area.
func (f *FuncMeta) HomeOff(v int32) uint32 {
	if int(v) < f.NumArgs {
		return f.ArgOff(int(v))
	}
	return f.SpillOff + 4*uint32(int(v)-f.NumArgs)
}

// BlockByID returns block metadata by IR block id.
func (f *FuncMeta) BlockByID(id int) *BlockMeta {
	for i := range f.Blocks {
		if f.Blocks[i].ID == id {
			return &f.Blocks[i]
		}
	}
	return nil
}

// RelocatableOffsets enumerates the frame offsets PSR may relocate: vreg
// homes, non-fixed locals, the callee-save area (the paper's "randomized
// scatter of callee saves"), and the return address word. Fixed (address-
// taken) slots and the outgoing-argument area stay put.
func (f *FuncMeta) RelocatableOffsets() []uint32 {
	var out []uint32
	for s := 0; s < f.NSlots; s++ {
		if !f.FixedSlot[s] {
			out = append(out, f.SlotOff(s))
		}
	}
	for v := int32(f.NumArgs); v < int32(f.NVRegs); v++ {
		out = append(out, f.HomeOff(v))
	}
	for w := uint32(0); w < SaveAreaWords; w++ {
		out = append(out, f.SaveOff+4*w)
	}
	out = append(out, f.RetAddrOff())
	return out
}

// Binary is a loaded-image description of a multi-ISA fat binary.
// Binaries are immutable after construction; that is what lets many VMs
// share one Binary and what makes ContentHash cacheable.
type Binary struct {
	Module     string
	Text       [2][]byte
	Data       []byte
	Funcs      []*FuncMeta
	FuncByName map[string]int
	EntryFunc  string // function where execution starts

	// contentHash caches ContentHash (0 = not yet computed; computed
	// values always have the top bit set). Atomic so concurrent VMs
	// hashing a shared Binary don't race; losers of the publish race
	// recompute the same value.
	contentHash atomic.Uint64
}

// ContentHash returns a deterministic digest of everything that can
// influence translation output: both text sections, the data image, and
// the full extended symbol table in function order. It deliberately avoids
// gob (map iteration order is randomized) so equal binaries hash equal
// across processes and runs. The shared translation-unit cache keys on it.
func (b *Binary) ContentHash() uint64 {
	if h := b.contentHash.Load(); h != 0 {
		return h
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00", b.Module, b.EntryFunc)
	for _, t := range b.Text {
		h.Write(t)
		h.Write([]byte{0})
	}
	h.Write(b.Data)
	for _, f := range b.Funcs {
		fmt.Fprintf(h, "%+v", *f)
	}
	sum := h.Sum64() | 1<<63
	b.contentHash.Store(sum)
	return sum
}

// Func returns the named function's metadata, or nil.
func (b *Binary) Func(name string) *FuncMeta {
	if i, ok := b.FuncByName[name]; ok {
		return b.Funcs[i]
	}
	return nil
}

// FuncAt returns the function whose ISA-k code range contains addr.
func (b *Binary) FuncAt(k isa.Kind, addr uint32) *FuncMeta {
	i := sort.Search(len(b.Funcs), func(i int) bool { return b.Funcs[i].End[k] > addr })
	if i < len(b.Funcs) && addr >= b.Funcs[i].Start[k] {
		return b.Funcs[i]
	}
	return nil
}

// BlockAt returns the function and block whose ISA-k range contains addr.
func (b *Binary) BlockAt(k isa.Kind, addr uint32) (*FuncMeta, *BlockMeta) {
	f := b.FuncAt(k, addr)
	if f == nil {
		return nil, nil
	}
	for i := range f.Blocks {
		blk := &f.Blocks[i]
		if addr >= blk.Addr[k] && addr < blk.End[k] {
			return f, blk
		}
	}
	return f, nil
}

// TextRange returns the [base, end) of ISA k's text section.
func (b *Binary) TextRange(k isa.Kind) (uint32, uint32) {
	base := TextBase(k)
	return base, base + uint32(len(b.Text[k]))
}

// Load maps the fat binary into an address space: both text sections
// (read+execute), the shared data section, a heap, and a stack.
func (b *Binary) Load(m *mem.Memory, stackSize, heapSize uint32) {
	for _, k := range isa.Kinds {
		if len(b.Text[k]) == 0 {
			continue
		}
		m.Map("text."+k.String(), TextBase(k), uint32(len(b.Text[k])), mem.PermRX)
		m.WriteForce(TextBase(k), b.Text[k])
	}
	if len(b.Data) > 0 {
		m.Map("data", DataBase, uint32(len(b.Data)), mem.PermRW)
		m.WriteForce(DataBase, b.Data)
	}
	if heapSize > 0 {
		m.Map("heap", HeapBase, heapSize, mem.PermRW)
	}
	if stackSize > 0 {
		m.Map("stack", StackTop-stackSize, stackSize, mem.PermRW)
	}
}

// Save serializes the binary.
func (b *Binary) Save() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, fmt.Errorf("fatbin: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadBytes deserializes a binary produced by Save. It rejects a symbol
// table that Func or FuncAt would trip over: a nil function entry, or a
// FuncByName entry out of range or naming another function.
func LoadBytes(data []byte) (*Binary, error) {
	// A non-nil FuncByName makes gob insert entries one by one instead of
	// presizing the map from an unchecked count in the stream.
	b := Binary{FuncByName: map[string]int{}}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return nil, fmt.Errorf("fatbin: decode: %w", err)
	}
	for i, f := range b.Funcs {
		if f == nil {
			return nil, fmt.Errorf("fatbin: function %d is missing", i)
		}
	}
	for name, i := range b.FuncByName {
		if i < 0 || i >= len(b.Funcs) {
			return nil, fmt.Errorf("fatbin: %q maps to function %d of %d", name, i, len(b.Funcs))
		}
		if b.Funcs[i].Name != name {
			return nil, fmt.Errorf("fatbin: %q maps to function %d, named %q", name, i, b.Funcs[i].Name)
		}
	}
	return &b, nil
}
