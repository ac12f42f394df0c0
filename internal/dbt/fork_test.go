package dbt_test

import (
	"reflect"
	"sync"
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
)

// TestForkOfFreshPrototypeEqualsColdBoot: a fork taken right after boot
// must be byte- and stats-indistinguishable from a cold New of the same
// config — same translations, same cache bytes, same run outcome, same
// block-cache and fusion counts. That holds for every fork of the
// snapshot, run one after another or concurrently, although every fork
// after the first takes predecoded blocks from the snapshot's table.
func TestForkOfFreshPrototypeEqualsColdBoot(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.Seed = 11
	cfg.MigrateProb = 0
	cfg.NoSharedUnits = true // compare two fully cold translation paths

	cold, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	fork := func() (*dbt.VM, error) {
		vm, err := snap.Fork(dbt.ForkConfig{})
		if err != nil {
			return nil, err
		}
		_, err = vm.Run(maxSteps)
		return vm, err
	}
	var forks []*dbt.VM
	for i := 0; i < 3; i++ {
		vm, err := fork()
		if err != nil {
			t.Fatal(err)
		}
		forks = append(forks, vm)
	}
	concurrent := make([]*dbt.VM, 4)
	errs := make([]error, len(concurrent))
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = fork()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	forks = append(forks, concurrent...)

	for i, vm := range append([]*dbt.VM{cold}, forks...) {
		if !vm.P.Exited || vm.P.ExitCode != want {
			t.Fatalf("vm %d: exit=%v code=%d want %d", i, vm.P.Exited, vm.P.ExitCode, want)
		}
	}
	for i, fork := range forks {
		if !reflect.DeepEqual(cold.Stats, fork.Stats) {
			t.Fatalf("fork %d: stats diverged:\ncold %+v\nfork %+v", i, cold.Stats, fork.Stats)
		}
		cbs, fbs := cold.P.M.BlockStats(), fork.P.M.BlockStats()
		if i > 0 && fbs.SharedHits == 0 {
			t.Fatalf("fork %d decoded every block itself; want hits in the snapshot's table", i)
		}
		fbs.SharedHits = cbs.SharedHits
		if cbs != fbs || cold.P.M.FusionStats() != fork.P.M.FusionStats() {
			t.Fatalf("fork %d: block cache diverged:\ncold %+v %+v\nfork %+v %+v",
				i, cbs, cold.P.M.FusionStats(), fbs, fork.P.M.FusionStats())
		}
		for _, k := range isa.Kinds {
			cu, fu := cold.Cache(k).Used(), fork.Cache(k).Used()
			if cu != fu {
				t.Fatalf("fork %d: %s cache used: cold %d fork %d", i, k, cu, fu)
			}
			cb := make([]byte, cu)
			fb := make([]byte, fu)
			if err := cold.P.Mem.Read(fatbin.CacheBase(k), cb); err != nil {
				t.Fatal(err)
			}
			if err := fork.P.Mem.Read(fatbin.CacheBase(k), fb); err != nil {
				t.Fatal(err)
			}
			if string(cb) != string(fb) {
				t.Fatalf("fork %d: %s cache bytes diverged between cold boot and fork", i, k)
			}
		}
	}
}

// TestForkIsolation: forks of one snapshot run to completion without
// perturbing each other or the prototype (VM-level CoW divergence).
func TestForkIsolation(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	a, err := snap.Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Run A to completion; B and the prototype must be untouched by A's
	// heap/stack/cache writes.
	if _, err := a.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if a.P.ExitCode != want {
		t.Fatalf("fork A exit %d want %d", a.P.ExitCode, want)
	}
	if b.P.M.Steps != 0 || b.P.Exited {
		t.Fatal("fork B advanced when only A ran")
	}
	for _, vm := range []*dbt.VM{b, proto} {
		if _, err := vm.Run(maxSteps); err != nil {
			t.Fatal(err)
		}
		if vm.P.ExitCode != want {
			t.Fatalf("exit %d want %d", vm.P.ExitCode, want)
		}
	}
	if a.P.Mem.CowBroken() == 0 {
		t.Fatal("fork A completed without breaking any CoW page")
	}
}

// TestSnapshotRespawnReRandomizes: a respawn fork re-randomizes relocation
// maps under the new seed while restoring the snapshot's memory image.
func TestSnapshotRespawnReRandomizes(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	re, err := snap.Respawn(isa.X86, 999, dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fn := bin.Func("main")
	m1 := proto.MapOf(fn)[isa.X86]
	m2 := re.MapOf(fn)[isa.X86]
	if reflect.DeepEqual(m1.OffTo, m2.OffTo) {
		t.Fatal("respawn fork did not re-randomize the relocation map")
	}
	if _, err := re.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if re.P.ExitCode != want {
		t.Fatalf("respawned fork exit %d want %d", re.P.ExitCode, want)
	}
	// The prototype must still run unperturbed afterwards.
	if _, err := proto.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if proto.P.ExitCode != want {
		t.Fatalf("prototype exit %d want %d", proto.P.ExitCode, want)
	}
}

// TestEightForksSharedSnapshotRace: eight VMs forked from one snapshot run
// concurrently (run with -race): shared CoW frames, the shared unit cache,
// and the snapshot structures must all be safe, and every guest must
// compute the same result.
func TestEightForksSharedSnapshotRace(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	codes := make([]uint32, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vm, err := snap.Fork(dbt.ForkConfig{})
			if err != nil {
				errs <- err
				return
			}
			if _, err := vm.Run(maxSteps); err != nil {
				errs <- err
				return
			}
			codes[i] = vm.P.ExitCode
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, c := range codes {
		if c != want {
			t.Fatalf("fork %d exit %d want %d", i, c, want)
		}
	}
}
