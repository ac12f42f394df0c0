package core_test

import (
	"runtime"
	"testing"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/workload"
)

// TestSpawnFootprint forks, and separately respawns, a booted httpd
// prototype 50 times, keeps every guest alive, and bounds the
// garbage-collected live heap each adds before its first step. Fleet
// admission and the §5.3 kill+respawn response rely on a guest costing
// its dirty state, not the image.
//
// A fork reads the snapshot's frozen page table in place and allocates
// histogram buckets only where it observes, so it keeps its translation
// metadata, telemetry and policy RNG: about 29 KB. A private copy of the
// prototype's 1,600-entry page table would add about 90 KB, and eleven
// dense 2,048-bucket histograms 176 KB. A respawn also translates its
// entry under a fresh seed and keeps the translator's scratch (about
// 95 KB of assembler items and 21 KB of decoded instructions), so it
// reads about 195 KB against its own bound; either regression above
// still fails it.
func TestSpawnFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a prototype and spawns 2×50 guests")
	}
	prof, _ := workload.ProfileByName("httpd")
	bin, err := workload.Compile(prof)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.New(bin, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()

	const guests = 50
	for _, tc := range []struct {
		name     string
		maxBytes int64
		spawn    func(i int) (*core.System, error)
	}{
		{"fork", 64 << 10, func(int) (*core.System, error) { return snap.Fork(dbt.ForkConfig{}) }},
		{"respawn", 256 << 10, func(i int) (*core.System, error) {
			return snap.Respawn(int64(i+1)*0x9E3779B9, dbt.ForkConfig{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			kept := make([]*core.System, guests)
			for i := range kept {
				var err error
				if kept[i], err = tc.spawn(i); err != nil {
					t.Fatal(err)
				}
			}
			after := liveHeap()
			runtime.KeepAlive(kept)
			per := (int64(after) - int64(before)) / guests
			t.Logf("%d live bytes per guest", per)
			if per > tc.maxBytes {
				t.Errorf("%d live bytes per guest, want <= %d", per, tc.maxBytes)
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
