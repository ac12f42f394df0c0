package fleet

// The concurrent-admission hammer (satellite of the fleet PR): many
// goroutines fork and respawn VMs from ONE shared core.Snapshot while all
// of them translate through the process-wide shared UnitCache. Run under
// -race this exercises every cross-goroutine edge of the admission path;
// the assertions then pin byte-identical guest results against a serial
// run of the same work, so concurrency is shown to be invisible to
// guests, not merely non-crashing.

import (
	"context"
	"sync"
	"testing"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/workload"
)

const hammerSteps = 25_000

// hammerSnapshot boots one libquantum prototype and snapshots it.
func hammerSnapshot(t *testing.T) *core.Snapshot {
	t.Helper()
	prof, ok := workload.ProfileByName("libquantum")
	if !ok {
		t.Fatal("libquantum profile missing")
	}
	bin, err := workload.Compile(prof)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.DBT.Seed = 0xfee1
	cfg.DBT.TraceCap = 256
	sys, err := core.New(bin, cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	return sys.Snapshot()
}

// forkRun forks (i even) or respawns under seed i (i odd) and runs the
// guest hammerSteps, returning the result digest.
func forkRun(t *testing.T, snap *core.Snapshot, i int) uint64 {
	t.Helper()
	var sys *core.System
	var err error
	if i%2 == 0 {
		sys, err = snap.Fork(dbt.ForkConfig{})
	} else {
		sys, err = snap.Respawn(int64(0x1000+i), dbt.ForkConfig{})
	}
	if err != nil {
		t.Errorf("guest %d spawn: %v", i, err)
		return 0
	}
	if _, err := sys.Run(hammerSteps); err != nil {
		t.Errorf("guest %d run: %v", i, err)
		return 0
	}
	return resultDigest(sys)
}

// TestRaceSharedSnapshotForkRespawn is the core of the hammer: 48 guests
// spawned concurrently from one snapshot — half CoW forks, half
// fresh-seed respawns — each executing 25k steps through the shared unit
// cache, byte-identical to the serial spawn of the same guest.
func TestRaceSharedSnapshotForkRespawn(t *testing.T) {
	snap := hammerSnapshot(t)
	const n = 48

	serial := make([]uint64, n)
	for i := range serial {
		serial[i] = forkRun(t, snap, i)
	}
	if t.Failed() {
		t.Fatal("serial pass failed; nothing to compare")
	}

	parallel := make([]uint64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			parallel[i] = forkRun(t, snap, i)
		}(i)
	}
	wg.Wait()

	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("guest %d: serial digest %#x != parallel %#x",
				i, serial[i], parallel[i])
		}
	}
	// All even guests are forks of one snapshot and must agree among
	// themselves; respawns must actually differ (new PSR seed) or the
	// respawn path silently degenerated into a fork.
	for i := 2; i < n; i += 2 {
		if serial[i] != serial[0] {
			t.Errorf("fork %d digest %#x != fork 0 %#x", i, serial[i], serial[0])
		}
	}
	if serial[1] == serial[0] {
		t.Error("respawn digest equals fork digest; reseed had no effect")
	}
}

// TestRaceFleetConcurrentAdmission drives the full host with admissions
// racing workers from several goroutines, then checks the per-tenant
// results against a serial single-admitter single-worker fleet.
func TestRaceFleetConcurrentAdmission(t *testing.T) {
	run := func(workers, admitters int) *Host {
		cfg := quotaConfig(workers)
		cfg.Policy.AttackProb = 0.2
		cfg.Policy.RespawnLimit = 1
		h := NewHost(cfg)
		if err := h.AddWorkload("libquantum"); err != nil {
			t.Fatalf("AddWorkload: %v", err)
		}
		h.Start(context.Background())
		const perAdmitter = 8
		var wg sync.WaitGroup
		wg.Add(admitters)
		for a := 0; a < admitters; a++ {
			go func() {
				defer wg.Done()
				for i := 0; i < perAdmitter; i++ {
					if _, err := h.Admit("libquantum"); err != nil {
						t.Errorf("Admit: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		h.Close()
		if err := h.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return h
	}
	hs := run(1, 1) // 8 tenants, serial
	hp := run(4, 4) // 32 tenants, racing admitters and workers

	// A tenant's result is a pure function of the fleet seed and its ID
	// (admission order and scheduling never reach the guest), so every
	// parallel-host tenant whose ID exists in the serial host must match
	// it bit for bit; higher IDs have no serial counterpart and are only
	// checked for clean retirement.
	ser := hs.Tenants()
	for _, tn := range hp.Tenants() {
		if !tn.Done() {
			t.Fatalf("tenant %d not retired", tn.ID())
		}
		if tn.ID() <= uint64(len(ser)) {
			ref := ser[tn.ID()-1]
			if tn.Digest() != ref.Digest() || tn.Steps() != ref.Steps() {
				t.Errorf("tenant %d: digest/steps diverge from serial host "+
					"(%#x/%d vs %#x/%d)", tn.ID(),
					tn.Digest(), tn.Steps(), ref.Digest(), ref.Steps())
			}
		}
	}
}
