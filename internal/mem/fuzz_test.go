package mem

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"testing"
)

// flatMem is the reference model of one Memory: a flat private copy of
// every page, with no copy-on-write sharing and no translation cache, plus
// the code generation and every logged code write.
type flatMem struct {
	pages map[uint32]*flatPage
	gen   uint64
	log   map[uint64]CodeWrite
}

type flatPage struct {
	data [PageSize]byte
	perm Perm
}

func newFlat() *flatMem {
	return &flatMem{pages: map[uint32]*flatPage{}, gen: 1, log: map[uint64]CodeWrite{}}
}

// clone is the model of both Snapshot and Fork: a deep copy.
func (f *flatMem) clone() *flatMem {
	c := &flatMem{pages: map[uint32]*flatPage{}, gen: f.gen, log: map[uint64]CodeWrite{}}
	for pn, pg := range f.pages {
		cp := *pg
		c.pages[pn] = &cp
	}
	for g, w := range f.log {
		c.log[g] = w
	}
	return c
}

func (f *flatMem) bump(addr, size uint32) {
	f.gen++
	f.log[f.gen] = CodeWrite{Addr: addr, Size: size}
}

func (f *flatMem) mapPages(addr, size uint32, perm Perm) {
	first, last := addr/PageSize, (addr+size-1)/PageSize
	bumped := false
	for pn := first; pn <= last; pn++ {
		pg, ok := f.pages[pn]
		if !ok {
			f.pages[pn] = &flatPage{perm: perm}
			continue
		}
		if (pg.perm|perm)&PermX != 0 && !bumped {
			f.bump(first*PageSize, (last-first+1)*PageSize)
			bumped = true
		}
		pg.perm = perm
	}
}

// walk visits [addr, addr+n) page by page, requiring access on each page
// it reaches, and returns the fault at the first page that lacks it.
func (f *flatMem) walk(addr uint32, n int, access Perm, visit func(pg *flatPage, po uint32, i, c int)) (int, error) {
	i := 0
	for off := addr; i < n; off = addr + uint32(i) {
		pg, ok := f.pages[off/PageSize]
		if !ok {
			return i, &Fault{Addr: off, Access: access}
		}
		if pg.perm&access != access {
			return i, &Fault{Addr: off, Access: access, Mapped: true}
		}
		po := off % PageSize
		c := min(n-i, int(PageSize-po))
		visit(pg, po, i, c)
		i += c
	}
	return i, nil
}

func (f *flatMem) read(addr uint32, buf []byte) error {
	_, err := f.walk(addr, len(buf), PermR, func(pg *flatPage, po uint32, i, c int) {
		copy(buf[i:i+c], pg.data[po:])
	})
	return err
}

func (f *flatMem) write(addr uint32, buf []byte) error {
	bumped := false
	_, err := f.walk(addr, len(buf), PermW, func(pg *flatPage, po uint32, i, c int) {
		if pg.perm&PermX != 0 && !bumped {
			f.bump(addr, uint32(len(buf)))
			bumped = true
		}
		copy(pg.data[po:], buf[i:i+c])
	})
	return err
}

func (f *flatMem) writeForce(addr uint32, buf []byte) {
	bumped := false
	for i := 0; i < len(buf); {
		off := addr + uint32(i)
		pg, ok := f.pages[off/PageSize]
		if !ok {
			pg = &flatPage{}
			f.pages[off/PageSize] = pg
		}
		if pg.perm&PermX != 0 && !bumped {
			f.bump(addr, uint32(len(buf)))
			bumped = true
		}
		i += copy(pg.data[off%PageSize:], buf[i:])
	}
}

func (f *flatMem) fetch(addr uint32, buf []byte) (int, error) {
	n, err := f.walk(addr, len(buf), PermX, func(pg *flatPage, po uint32, i, c int) {
		copy(buf[i:i+c], pg.data[po:])
	})
	if err != nil && n > 0 {
		return n, nil
	}
	return n, err
}

// opReader hands out fuzz input bytes, then zeros once they run out.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return v
}

// fuzzBase is the first of the nine pages the fuzz ops address; the ninth
// is mapped only by a Map or WriteForce that reaches past the eighth.
const fuzzBase = 0x10000

// addr draws an address: a page, then an offset near its start or, with
// the high bit set, near its end, so multi-byte accesses cross pages.
func (r *opReader) addr() uint32 {
	pn, off := uint32(r.next()%9), uint32(r.next())
	if off&0x80 != 0 {
		off = PageSize - 1 - off&0x7F
	}
	return fuzzBase + pn*PageSize + off
}

func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*31
	}
	return b
}

func le32(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var gf, wf *Fault
	return errors.As(got, &gf) && errors.As(want, &wf) && *gf == *wf
}

// FuzzForkMatchesFlat applies random Map, Write, WriteWord, StoreByte,
// WriteForce and InvalidateCodeRange sequences, with Snapshot and Fork
// between them, across up to four memories and four snapshots, and checks
// each against a flat private model: every read and fetch returns the
// model's bytes and faults, and after every op each memory's pages (its
// own over the frozen table it reads) and each snapshot's frozen structs
// hold the model's permissions and bytes, code generations equal the
// model's, the write log names exactly the model's recent code writes,
// SharedPages counts the pages a walk finds shared, and the process-wide
// zero page still reads all zeros. A fork that saw a sibling's or its
// source's later write, a snapshot whose frozen structs changed after it
// was taken (a write or a re-permission through one), or a write the
// barrier let through to the zero page diverges from its model.
func FuzzForkMatchesFlat(f *testing.F) {
	f.Add([]byte{
		0, 0, 0, 0, 128, 7, // map pages 0-2 rwx
		1, 0, 0, 0x83, 12, 9, // write 10 bytes across the page 0/1 seam
		10, 0, // snapshot memory 0
		11, 0, 0, // fork snapshot 0 into a second memory
		3, 1, 0, 0x81, 5, // store into the fork's page 0
		6, 0, 0, 0x81, 8, // read 9 bytes across the seam in the source
		9, 1, 0, 0x83, 4, // fetch 17 bytes across the seam in the fork
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{b: data}
		mems := []*Memory{New()}
		models := []*flatMem{newFlat()}
		var snaps []*Snapshot
		var snapModels []*flatMem
		const maxOps = 128
		for op := 0; op < maxOps && r.i < len(data); op++ {
			code, mi := r.next()%12, int(r.next())%len(mems)
			m, fm := mems[mi], models[mi]
			var what string
			// span is the range of pages whose bytes are checked after
			// the op: the ones it addressed, or all of them once the
			// input ends or a snapshot or fork makes new copies.
			span := [2]uint32{0, math.MaxUint32}
			at := func(a, n uint32) {
				if r.i < len(data) && op < maxOps-1 {
					span = [2]uint32{a / PageSize, (a + n - 1) / PageSize}
				}
			}
			switch code {
			case 0:
				a, size, perm := r.addr(), 1+uint32(r.next())*64, Perm(r.next()&7)
				what = fmt.Sprintf("Map(%#x, %d, %s)", a, size, perm)
				at(a, size)
				m.Map("", a, size, perm)
				fm.mapPages(a, size, perm)
			case 1, 4:
				a, buf := r.addr(), pattern(r.next(), 1+int(r.next()%24))
				at(a, uint32(len(buf)))
				if code == 4 {
					what = fmt.Sprintf("WriteForce(%#x, %d bytes)", a, len(buf))
					m.WriteForce(a, buf)
					fm.writeForce(a, buf)
					break
				}
				what = fmt.Sprintf("Write(%#x, %d bytes)", a, len(buf))
				if got, want := m.Write(a, buf), fm.write(a, buf); !sameErr(got, want) {
					t.Fatalf("%s: err %v, want %v", what, got, want)
				}
			case 2:
				a, v := r.addr(), uint32(r.next())*0x01030507
				what = fmt.Sprintf("WriteWord(%#x)", a)
				at(a, 4)
				if got, want := m.WriteWord(a, v), fm.write(a, le32(v)); !sameErr(got, want) {
					t.Fatalf("%s: err %v, want %v", what, got, want)
				}
			case 3:
				a, v := r.addr(), r.next()
				what = fmt.Sprintf("StoreByte(%#x)", a)
				at(a, 1)
				if got, want := m.StoreByte(a, v), fm.write(a, []byte{v}); !sameErr(got, want) {
					t.Fatalf("%s: err %v, want %v", what, got, want)
				}
			case 5:
				a, size := r.addr(), uint32(r.next()%8)
				what = fmt.Sprintf("InvalidateCodeRange(%#x, %d)", a, size)
				at(a, 1)
				m.InvalidateCodeRange(a, size)
				if size > 0 {
					fm.bump(a, size)
				}
			case 6, 7, 8:
				a, n := r.addr(), 1+int(r.next()%24)
				what = fmt.Sprintf("read %#x", a)
				at(a, uint32(n))
				switch code {
				case 7:
					n = 4
				case 8:
					n = 1
				}
				want := make([]byte, n)
				wantErr := fm.read(a, want)
				got := make([]byte, n)
				var err error
				switch code {
				case 6:
					err = m.Read(a, got)
				case 7:
					var v uint32
					v, err = m.ReadWord(a)
					got = le32(v)
				case 8:
					got[0], err = m.LoadByte(a)
				}
				if !sameErr(err, wantErr) || wantErr == nil && !bytes.Equal(got, want) {
					t.Fatalf("%s: got %x err %v, want %x err %v", what, got, err, want, wantErr)
				}
			case 9:
				a, n := r.addr(), 1+int(r.next())*4
				what = fmt.Sprintf("FetchInto(%#x, %d)", a, n)
				at(a, uint32(n))
				got, want := make([]byte, n), make([]byte, n)
				gn, err := m.FetchInto(a, got)
				wn, wantErr := fm.fetch(a, want)
				if gn != wn || !sameErr(err, wantErr) || !bytes.Equal(got[:gn], want[:wn]) {
					t.Fatalf("%s: %d bytes err %v, want %d err %v", what, gn, err, wn, wantErr)
				}
			case 10:
				what = fmt.Sprintf("Snapshot(memory %d)", mi)
				s, sm := m.Snapshot(), fm.clone()
				if len(snaps) < 4 {
					snaps, snapModels = append(snaps, s), append(snapModels, sm)
				} else {
					si := int(r.next()) % len(snaps)
					snaps[si], snapModels[si] = s, sm
				}
			case 11:
				if len(snaps) == 0 {
					continue
				}
				si := int(r.next()) % len(snaps)
				what = fmt.Sprintf("Fork(snapshot %d)", si)
				c, cm := snaps[si].Fork(), snapModels[si].clone()
				if len(mems) < 4 {
					mems, models = append(mems, c), append(models, cm)
				} else {
					mems[mi], models[mi] = c, cm
				}
			}
			for i, m := range mems {
				who := fmt.Sprintf("after op %d %s: memory %d", op, what, i)
				pages := pageTable(m)
				checkFlat(t, who, pages, m.codeGen, models[i], span)
				checkLog(t, who, m, models[i])
				checkShared(t, who, m, pages)
			}
			for i, s := range snaps {
				who := fmt.Sprintf("after op %d %s: snapshot %d", op, what, i)
				checkFlat(t, who, s.pages, s.codeGen, snapModels[i], span)
				for pn, pg := range s.pages {
					if pg.frame != frozen {
						t.Fatalf("%s: page %#x is not frozen (state %d)", who, pn, pg.frame)
					}
				}
			}
			if zeroPage != ([PageSize]byte{}) {
				t.Fatalf("after op %d %s: the zero page was written", op, what)
			}
		}
	})
}

// pageTable returns the page table a Memory's reads see: its own pages
// over the frozen table of the snapshot it was forked from.
func pageTable(m *Memory) map[uint32]*page {
	t := make(map[uint32]*page, len(m.base)+len(m.pages))
	maps.Copy(t, m.base)
	maps.Copy(t, m.pages)
	return t
}

// checkShared requires SharedPages to count the pages of a Memory's
// table whose data a snapshot also holds, and its own table to hold no
// frozen struct, which it may not change.
func checkShared(t *testing.T, who string, m *Memory, pages map[uint32]*page) {
	t.Helper()
	n := 0
	for _, pg := range pages {
		if pg.frame == shared || pg.frame == frozen {
			n++
		}
	}
	if got := m.SharedPages(); got != n {
		t.Fatalf("%s: SharedPages() = %d, want %d", who, got, n)
	}
	for pn, pg := range m.pages {
		if pg.frame == frozen {
			t.Fatalf("%s: own page %#x is frozen", who, pn)
		}
	}
}

// checkFlat requires a page table and code generation to equal the
// model: the same pages with the same permissions, and the same bytes on
// the pages in span.
func checkFlat(t *testing.T, who string, pages map[uint32]*page, gen uint64, fm *flatMem, span [2]uint32) {
	t.Helper()
	if gen != fm.gen {
		t.Fatalf("%s: code generation %d, want %d", who, gen, fm.gen)
	}
	if len(pages) != len(fm.pages) {
		t.Fatalf("%s: %d pages, want %d", who, len(pages), len(fm.pages))
	}
	for pn, want := range fm.pages {
		pg, ok := pages[pn]
		if !ok || pg.perm != want.perm ||
			pn >= span[0] && pn <= span[1] && !bytes.Equal(pg.data, want.data[:]) {
			t.Fatalf("%s: page %#x differs from the model (present %v)", who, pn, ok)
		}
	}
}

// checkLog requires CodeWriteAt to name exactly the model's code writes
// for the generations still in the log, and nothing for the one just
// rotated out or the next one.
func checkLog(t *testing.T, who string, m *Memory, fm *flatMem) {
	t.Helper()
	lo := uint64(2) // generation 1 is the initial one, never logged
	if fm.gen > CodeWriteLogSize {
		lo = fm.gen - CodeWriteLogSize
	}
	for g := lo; g <= fm.gen+1; g++ {
		w, ok := m.CodeWriteAt(g)
		want, logged := fm.log[g]
		inLog := logged && g <= fm.gen && g+CodeWriteLogSize > fm.gen
		if ok != inLog || ok && w != want {
			t.Fatalf("%s: CodeWriteAt(%d) = %+v, %v; want %+v, %v", who, g, w, ok, want, inLog)
		}
	}
}
