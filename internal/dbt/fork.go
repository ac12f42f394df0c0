package dbt

import (
	"maps"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/proc"
	"hipstr/internal/telemetry"
)

// VMSnapshot is an immutable point-in-time image of a running VM: the
// guest address space frozen copy-on-write, the machine register state,
// both code caches and RATs, trap/call registries, and the PSR map build
// order. Snapshots copy no page and no page struct (the memory's page
// table is frozen in place), and are safe to Fork from many goroutines
// concurrently.
//
// A fleet host keeps one booted "prototype" VM per binary and snapshots
// it once: admitting the Nth tenant is then a Fork (read the frozen page
// table in place, clone the translation metadata) instead of a boot (load
// the image, translate the entry). Killing a breached guest and
// respawning it with a fresh PSR seed reuses the same snapshot through
// Respawn.
//
// The snapshot's forks also share one table of predecoded blocks
// (machine.SharedBlocks): each fork's interpreter publishes the blocks it
// decodes, and its siblings reuse them wherever their code bytes still
// match instead of decoding the same image again.
type VMSnapshot struct {
	bin   *fatbin.Binary
	cfg   Config // normalized; Telemetry cleared (each fork gets its own)
	mem   *mem.Snapshot
	state machine.State
	stats Stats

	caches [2]*CodeCache
	rats   [2]*RAT
	traps  [2]map[uint32]trapMeta
	calls  [2]map[uint32]callMeta
	gen    [2]int

	mapOrder []int
	blocks   *machine.SharedBlocks // forks only; respawns decode privately

	pendingMigration bool
	lastEventTarget  uint32
	trace            []uint32
	exited           bool
	exitCode         uint32
	execves          []proc.ExecveEvent
}

// ForkConfig parameterizes one fork of a snapshot.
type ForkConfig struct {
	// Telemetry receives the fork's metrics and traces. Leave nil for a
	// private instance whose ring keeps the snapshot's Config.TraceCap
	// events (forks never share the prototype's registry: its collector
	// reads the prototype's live state).
	Telemetry *telemetry.Telemetry
}

// Snapshot freezes the VM's complete state. The VM keeps running
// afterwards; its next write to any page copies first (CoW), so the
// snapshot stays pristine. Cost is O(translation metadata), plus one
// copy of the frozen page table it reads when the VM is itself a fork.
func (vm *VM) Snapshot() *VMSnapshot {
	cfg := vm.Cfg
	cfg.Telemetry = nil
	s := &VMSnapshot{
		bin:              vm.Bin,
		cfg:              cfg,
		mem:              vm.P.Mem.Snapshot(),
		state:            vm.P.M.State,
		stats:            vm.Stats,
		gen:              vm.gen,
		mapOrder:         append([]int(nil), vm.mapOrder...),
		blocks:           new(machine.SharedBlocks),
		pendingMigration: vm.PendingMigration,
		lastEventTarget:  vm.LastEventTarget,
		trace:            append([]uint32(nil), vm.P.Trace...),
		exited:           vm.P.Exited,
		exitCode:         vm.P.ExitCode,
		execves:          append([]proc.ExecveEvent(nil), vm.P.Execves...),
	}
	for _, k := range isa.Kinds {
		s.caches[k] = vm.caches[k].Clone()
		s.rats[k] = vm.rats[k].Clone()
		s.traps[k] = maps.Clone(vm.traps[k])
		s.calls[k] = maps.Clone(vm.calls[k])
	}
	return s
}

// Fork materializes a new VM continuing exactly where the snapshot was
// taken: same registers, same translated code (aliased copy-on-write),
// same RAT and trap state, and — via map-build replay — the identical
// relocation maps and PSR RNG stream. A fork of a freshly booted
// prototype is indistinguishable from a cold New of the same config; the
// only post-fork divergence from the prototype's own continuation is the
// migration-policy RNG, which restarts from the seed (its state is not
// extractable from math/rand). The fork's interpreter shares the
// snapshot's predecoded blocks with its siblings, which changes how much
// decoding it does but nothing it executes or counts.
func (s *VMSnapshot) Fork(fc ForkConfig) (*VM, error) {
	vm := s.newShell(s.cfg, fc)
	p := vm.P
	p.M.State = s.state
	p.M.ShareBlocks(s.blocks)
	p.Trace = append([]uint32(nil), s.trace...)
	p.Exited = s.exited
	p.ExitCode = s.exitCode
	p.Execves = append([]proc.ExecveEvent(nil), s.execves...)
	for _, k := range isa.Kinds {
		vm.caches[k] = s.caches[k].Clone()
		vm.caches[k].OnFlush = p.Mem.InvalidateCodeRange
		vm.rats[k] = s.rats[k].Clone()
		vm.traps[k] = maps.Clone(s.traps[k])
		vm.calls[k] = maps.Clone(s.calls[k])
	}
	vm.gen = s.gen
	vm.Stats = s.stats
	vm.PendingMigration = s.pendingMigration
	vm.LastEventTarget = s.lastEventTarget
	// Replay the recorded map builds against the fresh randomizer. Its
	// draws are consumed strictly during Build, so the same builds in the
	// same order reconstruct byte-identical maps AND leave the RNG stream
	// in the same position — translations after the fork match the ones
	// the prototype would have produced.
	for _, idx := range s.mapOrder {
		vm.MapOf(vm.Bin.Funcs[idx])
	}
	return vm, nil
}

// Respawn materializes a fresh guest from the snapshot under a new PSR
// seed: the paper's kill+respawn breach response (§5.3) at O(dirty pages)
// cost. Memory forks copy-on-write from the snapshot image; relocation
// maps, code caches, RATs, and trap registries start empty (re-randomized
// under newSeed), and execution re-enters at the program entry on ISA k.
// Stale translated bytes from the snapshot's cache region are unreachable
// — the entry maps are empty and indirect transfers into cache regions
// are policed — and are overwritten copy-on-write as translation refills.
// A respawn decodes privately: its fresh seed gives it translations no
// sibling shares, which would only crowd the snapshot's block table.
func (s *VMSnapshot) Respawn(k isa.Kind, newSeed int64, fc ForkConfig) (*VM, error) {
	cfg := s.cfg
	cfg.Seed = newSeed
	vm := s.newShell(cfg, fc)
	vm.emptyCaches()
	if err := vm.Start(k); err != nil {
		return nil, err
	}
	return vm, nil
}

// newShell builds a VM over a copy-on-write fork of the snapshot's memory,
// its randomizer seeded from cfg.Seed and its translation state left for
// the caller to install.
func (s *VMSnapshot) newShell(cfg Config, fc ForkConfig) *VM {
	cfg.Telemetry = fc.Telemetry
	p := proc.Adopt(s.bin, machine.State{ISA: s.state.ISA}, s.mem.Fork())
	return newVM(s.bin, p, cfg)
}
