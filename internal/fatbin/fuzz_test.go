package fatbin_test

import (
	"bytes"
	"runtime"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/mem"
	"hipstr/internal/proc"
	"hipstr/internal/testprogs"
)

// oneFunc is a one-function binary whose FuncByName maps main to idx.
func oneFunc(idx int) *fatbin.Binary {
	return &fatbin.Binary{
		Module:     "one",
		Funcs:      []*fatbin.FuncMeta{{Name: "main"}},
		FuncByName: map[string]int{"main": idx},
		EntryFunc:  "main",
	}
}

func save(t testing.TB, b *fatbin.Binary) []byte {
	t.Helper()
	blob, err := b.Save()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLoadBytesRejectsBadSymbolTable: a FuncByName entry out of range or
// naming another function is a load error rather than a panic in Func
// later. (Save cannot encode a nil function, so that check has no case.)
func TestLoadBytesRejectsBadSymbolTable(t *testing.T) {
	two := &fatbin.Binary{
		Funcs:      []*fatbin.FuncMeta{{Name: "main"}, {Name: "f"}},
		FuncByName: map[string]int{"main": 1, "f": 0},
	}
	for name, b := range map[string]*fatbin.Binary{
		"out of range": oneFunc(7),
		"negative":     oneFunc(-1),
		"other name":   two,
	} {
		if _, err := fatbin.LoadBytes(save(t, b)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	if _, err := fatbin.LoadBytes(save(t, oneFunc(0))); err != nil {
		t.Fatalf("valid binary: %v", err)
	}
}

// TestLoadBytesDoesNotPresizeFuncByName: the stream's FuncByName count
// is not trusted as a size. A count of about 290,000 over one encoded
// entry fails to decode without allocating room for that many entries.
func TestLoadBytesDoesNotPresizeFuncByName(t *testing.T) {
	b := oneFunc(0)
	b.EntryFunc = "" // so FuncByName's one entry ends the stream
	blob := save(t, b)
	i := bytes.LastIndex(blob, []byte{1, 4, 'm', 'a', 'i', 'n'})
	if i < 0 {
		t.Fatalf("no FuncByName entry in %x", blob)
	}
	blob[i] = 0xFD // a 3-byte count follows: 0x046d61
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := fatbin.LoadBytes(blob)
	runtime.ReadMemStats(&ms)
	if err == nil {
		t.Fatal("corrupt count loaded without error")
	}
	if got := ms.TotalAlloc - before; got > 1<<20 {
		t.Fatalf("decoding allocated %d bytes", got)
	}
}

// FuzzLoadBytes: LoadBytes never panics, and a binary it accepts survives
// every symbol lookup its users make, its content hash and a load into a
// fresh address space.
func FuzzLoadBytes(f *testing.F) {
	progs := testprogs.All()
	for i, name := range []string{"fib", "sumloop"} {
		bin, err := compiler.Compile(progs[name].Mod)
		if err != nil {
			f.Fatalf("compile %s: %v", name, err)
		}
		blob := save(f, bin)
		f.Add(blob)
		if i == 0 {
			f.Add(blob[:len(blob)/2])
		}
	}
	f.Add(save(f, oneFunc(7)))
	f.Fuzz(func(t *testing.T, data []byte) {
		bin, err := fatbin.LoadBytes(data)
		if err != nil {
			return
		}
		for name := range bin.FuncByName {
			bin.Func(name)
		}
		bin.Func(bin.EntryFunc)
		for _, fn := range bin.Funcs {
			for _, k := range isa.Kinds {
				bin.FuncAt(k, fn.Start[k])
				bin.BlockAt(k, fn.Start[k])
			}
		}
		bin.ContentHash()
		bin.Load(mem.New(), proc.DefaultStackSize, proc.DefaultHeapSize)
	})
}
