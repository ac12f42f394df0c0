package dbt_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// wantVMDigest folds every TestVMDigest run. It was recorded before the
// cold translator and shared-unit hits were folded into one install;
// change it only when a change means to alter what the VM translates,
// executes, counts or traces.
const wantVMDigest = 0x937c0978deab90d

// digestStepCap bounds each TestVMDigest run.
const digestStepCap = 1_000_000

// eventLog is a tracer sink keeping every event, so a long run drops
// none the ring would.
type eventLog []telemetry.Event

func (l *eventLog) Emit(e telemetry.Event) { *l = append(*l, e) }

// vmFold is an FNV-1a digest of VM runs: everything a run computes,
// counts and traces except Stats.Kills, EvKill events, and each event's
// Seq and Cost. With sameAsCold set it also leaves out what only tells
// a shared-cache hit from a cold translation (the Shared* stats and the
// " (shared)" suffix of translate details), so a warm run folds to its
// cold run's value.
type vmFold struct {
	d          uint64
	sameAsCold bool
}

func newVMFold(sameAsCold bool) *vmFold {
	return &vmFold{d: 14695981039346656037, sameAsCold: sameAsCold}
}

func (f *vmFold) word(w uint64) { f.d = (f.d ^ w) * 1099511628211 }

func (f *vmFold) str(s string) {
	f.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.word(uint64(s[i]))
	}
}

func (f *vmFold) bytes(b []byte) {
	f.word(uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		f.word(binary.LittleEndian.Uint64(b))
	}
	for _, c := range b {
		f.word(uint64(c))
	}
}

// run folds one finished run of vm: its Run result, the process's
// observable output, the VM's stats, both code caches and RATs, and the
// events log captured from boot on.
func (f *vmFold) run(t *testing.T, vm *dbt.VM, steps uint64, err error, log eventLog) {
	t.Helper()
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	f.str(errMsg)
	f.word(b2u(errors.Is(err, dbt.ErrSecurityKill)))
	f.word(steps)
	p := vm.P
	f.word(b2u(p.Exited))
	f.word(uint64(p.ExitCode))
	f.word(uint64(len(p.Trace)))
	for _, v := range p.Trace {
		f.word(uint64(v))
	}
	st := vm.Stats
	for _, v := range []uint64{
		st.Translations[isa.X86], st.Translations[isa.ARM], st.IndirectDispatch,
		st.CodeCacheMisses, st.CompulsoryMisses, st.ReturnMisses, st.SecurityEvents,
		st.Migrations, st.SecurityMigrations, st.ChainPatches, st.Flushes,
		st.SyscallsForwarded,
	} {
		f.word(v)
	}
	if !f.sameAsCold {
		for _, v := range []uint64{st.SharedHits, st.SharedMisses, st.SharedInstalls, st.SharedBytesSaved} {
			f.word(v)
		}
	}
	for _, k := range isa.Kinds {
		c := vm.Cache(k)
		f.word(uint64(c.Used()))
		f.word(uint64(c.NumUnits()))
		f.word(c.Lookups)
		f.word(c.Hits)
		f.word(uint64(c.Flushes))
		code := make([]byte, c.Used())
		if err := p.Mem.Read(fatbin.CacheBase(k), code); err != nil {
			t.Fatal(err)
		}
		f.bytes(code)
		// Which unit owns each cache byte, and whether it is dispatch
		// stub: the unit map and stub starts an install records.
		var prev [3]uint64
		for off := uint32(0); off < c.Used(); off++ {
			src, stub, ok := vm.ResolvePCClass(k, c.Base+off)
			cur := [3]uint64{uint64(src), b2u(stub), b2u(ok)}
			if off == 0 || cur != prev {
				f.word(uint64(off))
				f.word(cur[0])
				f.word(cur[1])
				f.word(cur[2])
				prev = cur
			}
		}
		srcs := c.TranslatedSources()
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, s := range srcs {
			f.word(uint64(s))
		}
		f.word(uint64(c.IndirectTargetCount()))
		r := vm.RATOf(k)
		f.word(r.Lookups)
		f.word(r.Misses)
		f.word(r.Evictions)
		f.word(uint64(r.Entries()))
	}
	n := 0
	for _, e := range log {
		if e.Type == telemetry.EvKill {
			continue
		}
		n++
		detail := e.Detail
		if f.sameAsCold && e.Type == telemetry.EvTranslate {
			detail = strings.TrimSuffix(detail, " (shared)")
		}
		f.str(string(e.Type))
		f.str(e.ISA)
		f.word(uint64(e.Addr))
		f.word(uint64(e.Target))
		f.str(detail)
	}
	f.word(uint64(n))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// digestMode names how a digest run boots its guest.
type digestMode int

const (
	modePSR    digestMode = iota // dbt.New, no migrator
	modeHIPStR                   // core.New in HIPStR mode
)

// bootTraced boots bin on ISA k under cfg with a telemetry instance
// whose tracer logs every event from the first translation on.
func bootTraced(bin *fatbin.Binary, k isa.Kind, cfg dbt.Config, mode digestMode) (*dbt.VM, *eventLog, error) {
	log := new(eventLog)
	tel := telemetry.New()
	tel.Trace.AddSink(log)
	cfg.Telemetry = tel
	if mode == modePSR {
		vm, err := dbt.New(bin, k, cfg)
		return vm, log, err
	}
	cc := core.DefaultConfig()
	cc.StartISA = k
	cc.DBT = cfg
	sys, err := core.New(bin, cc)
	if err != nil {
		return nil, log, err
	}
	return sys.VM, log, nil
}

// foldRun boots and runs one guest to exit or cap steps and folds it. A
// boot error is folded as the whole run.
func foldRun(t *testing.T, f *vmFold, bin *fatbin.Binary, k isa.Kind, cfg dbt.Config, mode digestMode, cap uint64) *dbt.VM {
	t.Helper()
	vm, log, err := bootTraced(bin, k, cfg, mode)
	if err != nil {
		f.str("boot: " + err.Error())
		return nil
	}
	steps, err := vm.Run(cap)
	f.run(t, vm, steps, err, *log)
	return vm
}

// TestVMDigest runs the 9 benchmark profiles on both start ISAs under
// three VM configurations and compares one fold of every run with a
// recorded constant: the VM's translations, cache contents, stats, RATs and
// trace (kills aside) must not move unless a change means them to.
func TestVMDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark under three VM configurations")
	}
	// The paper's PSR O3 with a roomy cache; PSR O1 in a flushing cache
	// with no shared units (flushes, chain patches and RAT misses); HIPStR
	// in a flushing cache (migrations on both ISAs). A config with shared
	// units runs cold, then warm, on a fresh private unit cache.
	o3 := dbt.DefaultConfig()
	o3.MigrateProb = 0
	o1 := o3
	o1.Opt = dbt.O1
	o1.CodeCacheSize = 16 << 10
	o1.NoSharedUnits = true
	hip := dbt.DefaultConfig()
	hip.CodeCacheSize = 16 << 10
	configs := []struct {
		name string
		cfg  dbt.Config
		mode digestMode
	}{
		{"psr-o3-2m", o3, modePSR},
		{"psr-o1-16k", o1, modePSR},
		{"hipstr-16k", hip, modeHIPStR},
	}
	f := newVMFold(false)
	runs := 0
	for _, prof := range append(workload.Profiles(), workload.HTTPD()) {
		bin, err := workload.Compile(prof)
		if err != nil {
			t.Fatalf("compile %s: %v", prof.Name, err)
		}
		for _, k := range isa.Kinds {
			for _, dc := range configs {
				t.Run(fmt.Sprintf("%s/%s/%s", prof.Name, k, dc.name), func(t *testing.T) {
					cfg := dc.cfg
					if cfg.NoSharedUnits {
						foldRun(t, f, bin, k, cfg, dc.mode, digestStepCap)
						runs++
						return
					}
					cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
					foldRun(t, f, bin, k, cfg, dc.mode, digestStepCap) // cold
					foldRun(t, f, bin, k, cfg, dc.mode, digestStepCap) // warm
					runs += 2
				})
			}
		}
	}
	if f.d != wantVMDigest {
		t.Errorf("digest %#x over %d runs, want %#x", f.d, runs, uint64(wantVMDigest))
	}
}
