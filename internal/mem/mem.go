// Package mem provides the sparse, permission-checked 32-bit address space
// shared by both cores of the simulated heterogeneous-ISA CMP.
//
// The address space is organized as 4 KiB pages created by Map. Pages are
// demand-zero: Map points every fresh page at one immutable process-wide
// zero page, and page data appears only at a page's first write, which
// gives it its own zeroed frame. Mapping therefore costs page-table
// entries but no page data. Invariant: nothing writes the zero page. Every
// write path (Write, WriteWord, StoreByte, WriteForce) goes through the
// write barrier, ensureOwned, that also breaks copy-on-write sharing with
// snapshots and forks; WriteWord's fast path writes only a frame the
// barrier has already made this Memory's own.
//
// A Snapshot freezes the page structs themselves, and a Fork reads its
// snapshot's frozen page table in place: the fork's own table holds only
// the pages it has written or re-permissioned, so forking costs nothing
// per page.
//
// A 64-entry direct-mapped page TLB caches translations and, for word
// access, page frames: a ReadWord or WriteWord that hits it costs one
// compare and no page-table lookup (see tlbSlot).
//
// Named regions record the process layout (per-ISA text sections, data,
// heap, stack, per-ISA code caches) so higher layers — the PSR virtual
// machine's software-fault-isolation checks, the gadget miner, the JIT-ROP
// attacker model — can reason about which region an address falls in.
package mem

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"sort"
)

// PageSize is the granularity of mapping and permissions.
const PageSize = 4096

// Perm is a page-permission bitmask.
type Perm uint8

const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Fault is a memory access violation: unmapped address or permission
// mismatch. Attack simulations use Faults to detect crashed exploit
// attempts.
type Fault struct {
	Addr   uint32
	Access Perm
	Mapped bool
}

func (f *Fault) Error() string {
	if !f.Mapped {
		return fmt.Sprintf("mem: fault: %s access to unmapped address %#x", f.Access, f.Addr)
	}
	return fmt.Sprintf("mem: fault: %s access denied at %#x", f.Access, f.Addr)
}

type page struct {
	data []byte
	perm Perm
	// frame says whose bytes data holds, and whether the struct itself
	// may change. Only an owned frame may be written; the write barrier
	// (ensureOwned) gives the page one first. A Memory's own structs are
	// changed only by the owning goroutine, so the barrier pays a plain
	// byte check, not an atomic.
	frame frameState
}

// frameState is a page's ownership of its data.
type frameState uint8

const (
	// owned: data is this Memory's private frame.
	owned frameState = iota
	// zeroFilled: data is zeroPage. The page was mapped but never
	// written, and no snapshot has seen it.
	zeroFilled
	// shared: data is a frozen page's frame, perhaps zeroPage, in a struct
	// of this Memory's own (a frozen page it re-permissioned). The bytes
	// are immutable until this Memory copies them (copy-on-write).
	shared
	// frozen: the struct belongs to a Snapshot's page table, which every
	// fork of the snapshot reads in place. Neither the struct nor its
	// data ever changes again: a Memory copies the struct into its own
	// table before it re-permissions the page (Map) and gives it a fresh
	// struct and frame before it writes it (ensureOwned).
	frozen
)

// zeroPage is the frame of every page that has not been written yet.
// Nothing writes it: ensureOwned replaces it before any write.
var zeroPage [PageSize]byte

// Region is a named address range of the process layout.
type Region struct {
	Name string
	Base uint32
	Size uint32
	Perm Perm
}

// End returns the first address past the region.
func (r Region) End() uint32 { return r.Base + r.Size }

// Memory is a sparse paged address space.
type Memory struct {
	// pages is this Memory's own page table; base is the frozen table of
	// the snapshot it was forked from (nil for New), which every sibling
	// fork reads too. A page in pages shadows the same page in base.
	pages   map[uint32]*page
	base    map[uint32]*page
	regions map[string]Region
	// shared counts the pages whose data a snapshot also holds: base
	// pages no own page shadows, and own pages whose frame is shared.
	shared int
	// codeGen is the monotonic code-generation counter: it advances on
	// every mutation that could change executable bytes (writes into
	// pages with execute permission, re-mappings that touch execute
	// permission, and InvalidateCodeRange calls). Consumers that cache
	// decoded instructions — the interpreter's basic-block cache — compare
	// generations instead of re-fetching, so the hot path stays a single
	// integer comparison. It is the "anything changed?" fast path; the
	// write log below says *what* changed.
	codeGen uint64
	// writeLog is a ring of the byte ranges behind recent generation
	// bumps, indexed by generation: every bump logs exactly one range.
	// Consumers that fall behind by more than CodeWriteLogSize
	// generations can no longer tell what changed and drop everything.
	writeLog [CodeWriteLogSize]codeWrite
	// cowBroken counts pages this Memory has privatized: shared page data
	// copied because of a write (see ensureOwned).
	cowBroken uint64
	// tlb is a direct-mapped translation cache over the page table,
	// indexed by page number modulo tlbSize (see tlbSlot).
	tlb [tlbSize]tlbSlot
}

// tlbSize is the number of direct-mapped page-translation slots per
// Memory; must be a power of two.
const tlbSize = 64

// tlbSlot is one page-TLB entry: page pn's struct and, for word access,
// its frame. Pages are never removed from the table, and a page's struct
// changes only where its slot is refilled: Map re-permissions an own
// struct in place or copies a frozen one into the own table, and
// ensureOwned swaps the data slice inside an own struct or replaces a
// frozen one; Snapshot freezes the structs where they are. So the
// translation itself never goes stale; pageFor still checks permissions,
// and the write paths the frame state, on every access. A nil pg is an
// empty slot.
//
// rbase is pn*PageSize while ReadWord may read frame directly (the page
// is readable), and wbase while WriteWord may write it directly (the page
// is writable, owned and not executable, so the write needs neither the
// write barrier nor a code-generation bump); otherwise each is
// noBase(slot). A word access at addr takes the frame when addr-base is at
// most PageSize-4, one unsigned compare that checks both the page and
// that the word does not cross its end. Whatever swaps the frame or
// changes what it may be used for refills the slot: ensureOwned and a Map
// that re-permissions the page. Snapshot clears every wbase, since every
// page becomes frozen, and Fork starts with every slot empty.
type tlbSlot struct {
	pn           uint32
	rbase, wbase uint32
	pg           *page
	frame        *[PageSize]byte
}

// noBase is the base of an unusable frame in TLB slot i: the base of a
// page that maps to another slot, so no address of slot i lies within a
// page of it.
func noBase(i uint32) uint32 { return (i + 1) % tlbSize * PageSize }

// emptyTLB is the page TLB of a new Memory: every slot empty.
var emptyTLB = func() (t [tlbSize]tlbSlot) {
	for i := range t {
		t[i].rbase = noBase(uint32(i))
		t[i].wbase = t[i].rbase
	}
	return t
}()

// fillTLB loads page pn, pg, into its TLB slot, with the frame bases its
// permissions and frame state allow.
func (m *Memory) fillTLB(pn uint32, pg *page) {
	e := &m.tlb[pn%tlbSize]
	none := noBase(pn % tlbSize)
	e.pn, e.pg, e.frame = pn, pg, (*[PageSize]byte)(pg.data)
	e.rbase, e.wbase = none, none
	if pg.perm&PermR != 0 {
		e.rbase = pn * PageSize
	}
	if pg.perm&(PermW|PermX) == PermW && pg.frame == owned {
		e.wbase = pn * PageSize
	}
}

// CodeWriteLogSize is the number of recent ranged code mutations the
// memory remembers for byte-exact cache invalidation.
const CodeWriteLogSize = 64

type codeWrite struct {
	gen  uint64
	addr uint32
	size uint32
}

// CodeWrite is the byte range of one ranged code mutation.
type CodeWrite struct {
	Addr uint32
	Size uint32
}

// CodeWriteAt returns the byte range whose mutation produced generation g,
// if g is recent enough to still be in the write log.
func (m *Memory) CodeWriteAt(g uint64) (CodeWrite, bool) {
	e := &m.writeLog[g%CodeWriteLogSize]
	if e.gen != g {
		return CodeWrite{}, false
	}
	return CodeWrite{Addr: e.addr, Size: e.size}, true
}

// logCodeWrite records the byte range of the mutation that produced the
// current code generation.
func (m *Memory) logCodeWrite(addr, size uint32) {
	m.writeLog[m.codeGen%CodeWriteLogSize] = codeWrite{gen: m.codeGen, addr: addr, size: size}
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{
		pages:   make(map[uint32]*page),
		regions: make(map[string]Region),
		codeGen: 1,
		tlb:     emptyTLB,
	}
}

// CodeGen returns the current code generation. Some cached decode of
// executable bytes may be stale once the value changes; CodeWriteAt names
// the byte range behind each recent step.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// InvalidateCodeRange advances the code generation and logs [addr,
// addr+size) without touching memory. The DBT wires code-cache flushes
// here so block caches drop decodes of evicted translations — and only
// those — even before their bytes are overwritten.
func (m *Memory) InvalidateCodeRange(addr, size uint32) {
	if size == 0 {
		return
	}
	m.codeGen++
	m.logCodeWrite(addr, size)
}

// Map creates (or re-permissions) pages covering [addr, addr+size) with the
// given permissions and, when name is non-empty, records a region of that
// name. Size is rounded up to whole pages; a zero size maps no page, and a
// range past the top of the address space stops at its last page. Fresh
// pages read as zeros and alias the zero page until their first write. A
// frozen page is re-permissioned in a copy of its struct that keeps
// sharing the snapshot's frame.
func (m *Memory) Map(name string, addr, size uint32, perm Perm) Region {
	r := Region{Name: name, Base: addr, Size: size, Perm: perm}
	if name != "" {
		m.regions[name] = r
	}
	if size == 0 {
		return r
	}
	first := addr / PageSize
	last := uint32(min(uint64(addr)+uint64(size)-1, math.MaxUint32) / PageSize)
	bumped := false
	var slab []page // page structs for this call's fresh and copied pages
	for pn := first; pn <= last; pn++ {
		pg, ok := m.lookup(pn)
		if ok && (pg.perm|perm)&PermX != 0 && !bumped {
			m.codeGen++
			m.logCodeWrite(first*PageSize, (last-first+1)*PageSize)
			bumped = true
		}
		if ok && pg.frame != frozen {
			pg.perm = perm
			m.fillTLB(pn, pg)
			continue
		}
		if len(slab) == 0 {
			slab = make([]page, last-pn+1)
		}
		np := &slab[0]
		slab = slab[1:]
		m.pages[pn] = np
		if !ok {
			// A fresh page cannot have cached decodes: no generation bump.
			*np = page{data: zeroPage[:], perm: perm, frame: zeroFilled}
			continue
		}
		*np = page{data: pg.data, perm: perm, frame: shared}
		m.fillTLB(pn, np)
	}
	return r
}

// lookup returns page pn: this Memory's own struct, else the frozen one
// of the snapshot it was forked from.
func (m *Memory) lookup(pn uint32) (*page, bool) {
	if pg, ok := m.pages[pn]; ok {
		return pg, true
	}
	pg, ok := m.base[pn]
	return pg, ok
}

// Region returns the named region.
func (m *Memory) Region(name string) (Region, bool) {
	r, ok := m.regions[name]
	return r, ok
}

// Regions returns all named regions sorted by base address.
func (m *Memory) Regions() []Region {
	out := make([]Region, 0, len(m.regions))
	for _, r := range m.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// ensureOwned is the write barrier: it returns page pn, pg, with a private
// frame, and the write about to happen goes through the struct it
// returns. A never-written page gets a zeroed frame in place of the zero
// page. A page whose bytes a snapshot holds gets a copy of them and counts
// one copy-on-write break; a frozen page gets that copy in a new struct of
// this Memory's own table. Either way the write cannot reach the zero
// page, a snapshot or another address space, and the page's TLB slot is
// refilled with the new frame. Owned pages (the common case after
// warm-up) cost one predictable branch.
func (m *Memory) ensureOwned(pn uint32, pg *page) *page {
	if pg.frame == owned {
		return pg
	}
	nd := make([]byte, PageSize)
	if pg.frame != zeroFilled {
		copy(nd, pg.data)
		m.cowBroken++
		m.shared--
	}
	if pg.frame == frozen {
		pg = &page{perm: pg.perm}
		m.pages[pn] = pg
	}
	pg.data = nd
	pg.frame = owned
	m.fillTLB(pn, pg)
	return pg
}

// CowBroken returns how many shared pages this Memory has privatized
// (copied on first write) since it was created or forked.
func (m *Memory) CowBroken() uint64 { return m.cowBroken }

// SharedPages returns how many of this Memory's pages still alias bytes
// owned jointly with a snapshot or sibling fork. A freshly forked Memory
// shares everything; the count decays as the write barrier privatizes
// pages. A never-written page of a never-snapshotted Memory is not shared.
func (m *Memory) SharedPages() int { return m.shared }

func (m *Memory) pageFor(addr uint32, access Perm) (*page, error) {
	pn := addr / PageSize
	e := &m.tlb[pn%tlbSize]
	pg := e.pg
	if pg == nil || e.pn != pn {
		var ok bool
		pg, ok = m.lookup(pn)
		if !ok {
			return nil, &Fault{Addr: addr, Access: access}
		}
		m.fillTLB(pn, pg)
	}
	if pg.perm&access != access {
		return nil, &Fault{Addr: addr, Access: access, Mapped: true}
	}
	return pg, nil
}

// Read copies len(buf) bytes from addr, requiring read permission.
func (m *Memory) Read(addr uint32, buf []byte) error {
	off := addr
	for len(buf) > 0 {
		pg, err := m.pageFor(off, PermR)
		if err != nil {
			return err
		}
		po := off % PageSize
		n := copy(buf, pg.data[po:])
		buf = buf[n:]
		off += uint32(n)
	}
	return nil
}

// Write copies buf to addr, requiring write permission.
func (m *Memory) Write(addr uint32, buf []byte) error {
	off := addr
	n0 := uint32(len(buf))
	bumped := false
	for len(buf) > 0 {
		pg, err := m.pageFor(off, PermW)
		if err != nil {
			return err
		}
		pg = m.ensureOwned(off/PageSize, pg)
		if pg.perm&PermX != 0 && !bumped {
			m.codeGen++
			m.logCodeWrite(addr, n0)
			bumped = true
		}
		po := off % PageSize
		n := copy(pg.data[po:], buf)
		buf = buf[n:]
		off += uint32(n)
	}
	return nil
}

// WriteForce writes ignoring permissions, mapping pages as needed. Loaders
// and the DBT's code-cache emitter use it; simulated programs never do.
func (m *Memory) WriteForce(addr uint32, buf []byte) {
	off := addr
	n0 := uint32(len(buf))
	bumped := false
	for len(buf) > 0 {
		pn := off / PageSize
		pg, ok := m.lookup(pn)
		if !ok {
			pg = &page{data: make([]byte, PageSize)}
			m.pages[pn] = pg
		}
		pg = m.ensureOwned(pn, pg)
		if pg.perm&PermX != 0 && !bumped {
			m.codeGen++
			m.logCodeWrite(addr, n0)
			bumped = true
		}
		po := off % PageSize
		n := copy(pg.data[po:], buf)
		buf = buf[n:]
		off += uint32(n)
	}
}

// LoadByte reads a single byte.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	pg, err := m.pageFor(addr, PermR)
	if err != nil {
		return 0, err
	}
	return pg.data[addr%PageSize], nil
}

// StoreByte writes a single byte.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	pg, err := m.pageFor(addr, PermW)
	if err != nil {
		return err
	}
	pg = m.ensureOwned(addr/PageSize, pg)
	if pg.perm&PermX != 0 {
		m.codeGen++
		m.logCodeWrite(addr, 1)
	}
	pg.data[addr%PageSize] = v
	return nil
}

// ReadWord reads a little-endian 32-bit word. A word inside a readable
// page whose TLB slot holds it is one compare away (see tlbSlot).
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	e := &m.tlb[addr/PageSize%tlbSize]
	if po := addr - e.rbase; po <= PageSize-4 {
		return binary.LittleEndian.Uint32(e.frame[po:]), nil
	}
	return m.readWord(addr)
}

// readWord is ReadWord through the page table: a TLB slot miss, an
// unreadable page, or a word that crosses a page boundary.
func (m *Memory) readWord(addr uint32) (uint32, error) {
	if po := addr % PageSize; po <= PageSize-4 {
		pg, err := m.pageFor(addr, PermR)
		if err != nil {
			return 0, err
		}
		d := pg.data[po : po+4 : po+4]
		return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
	}
	var b [4]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteWord writes a little-endian 32-bit word. A word inside a
// writable, owned, non-executable page whose TLB slot holds it is one
// compare away (see tlbSlot).
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	e := &m.tlb[addr/PageSize%tlbSize]
	if po := addr - e.wbase; po <= PageSize-4 {
		binary.LittleEndian.PutUint32(e.frame[po:], v)
		return nil
	}
	return m.writeWord(addr, v)
}

// writeWord is WriteWord through the page table and the write barrier: a
// TLB slot miss, a page that is not writable, owned and non-executable,
// or a word that crosses a page boundary. Writes to executable pages bump
// the code generation here.
func (m *Memory) writeWord(addr uint32, v uint32) error {
	if po := addr % PageSize; po <= PageSize-4 {
		pg, err := m.pageFor(addr, PermW)
		if err != nil {
			return err
		}
		pg = m.ensureOwned(addr/PageSize, pg)
		if pg.perm&PermX != 0 {
			m.codeGen++
			m.logCodeWrite(addr, 4)
		}
		d := pg.data[po : po+4 : po+4]
		d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return nil
	}
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return m.Write(addr, b[:])
}

// FetchInto fills the caller's buf with instruction bytes starting at
// addr, requiring execute permission on every page touched, and returns
// how many were copied. Fewer than len(buf) bytes come back when the
// executable range ends; a fault on the very first page is an error. The
// interpreter's block cache uses it to refill without allocating.
func (m *Memory) FetchInto(addr uint32, buf []byte) (int, error) {
	off := addr
	n := 0
	for n < len(buf) {
		pg, err := m.pageFor(off, PermX)
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		po := off % PageSize
		c := copy(buf[n:], pg.data[po:])
		n += c
		off += uint32(c)
	}
	return n, nil
}

// Snapshot is a frozen image of a Memory: its frozen page table, plus the
// region table and the code-generation state (codeGen and the write log)
// at the moment of the snapshot. Snapshots are immutable and safe to Fork
// from many goroutines concurrently; the source Memory keeps running over
// the same frozen table and copies pages into its own as it writes them.
type Snapshot struct {
	pages    map[uint32]*page // every struct frozen
	regions  map[string]Region
	codeGen  uint64
	writeLog [CodeWriteLogSize]codeWrite
}

// Snapshot freezes the current image. The Memory's own page structs,
// never-written ones included, become frozen where they are and form the
// snapshot's table, over a copy of the table this Memory was forked from,
// if any. The Memory then reads that table as its base, as a fork does,
// with an empty own table, so its next write to any page copies first and
// the snapshot's bytes never change after this call. Cost: no page copies
// and no page structs.
func (m *Memory) Snapshot() *Snapshot {
	t := m.pages
	if len(m.base) > 0 {
		t = maps.Clone(m.base)
		maps.Copy(t, m.pages)
	}
	for _, pg := range m.pages {
		pg.frame = frozen
	}
	m.pages, m.base, m.shared = make(map[uint32]*page), t, len(t)
	for i := range m.tlb {
		m.tlb[i].wbase = noBase(uint32(i))
	}
	return &Snapshot{
		pages:    t,
		regions:  maps.Clone(m.regions),
		codeGen:  m.codeGen,
		writeLog: m.writeLog,
	}
}

// Fork materializes a new Memory from the snapshot. It reads the
// snapshot's frozen page table in place, and its own table holds only the
// pages it writes (the write barrier copies on demand) or re-permissions,
// so a fork costs its dirty pages, not the image. The code generation and
// the write log carry over, keeping block caches built against the source
// image exactly as valid as they were at snapshot time.
func (s *Snapshot) Fork() *Memory {
	return &Memory{
		pages:    make(map[uint32]*page),
		base:     s.pages,
		regions:  maps.Clone(s.regions),
		shared:   len(s.pages),
		codeGen:  s.codeGen,
		writeLog: s.writeLog,
		tlb:      emptyTLB,
	}
}
