package attack

import (
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
)

// JITROPResult is the Figure 5 analysis for one benchmark: the attack
// surface a just-in-time code-reuse attacker sees after leaking the code
// cache, and how heterogeneous-ISA migration gates it (§7.1).
type JITROPResult struct {
	Benchmark string
	// TotalViable is the brute-force-viable gadget population of the
	// whole binary (the JIT-ROP attacker's upper bound).
	TotalViable int
	// InCache counts viable gadgets whose enclosing block is translated —
	// the only ones whose randomized form the cache leak reveals.
	InCache int
	// TriggerMigration counts in-cache gadgets whose use (an indirect
	// transfer to a non-indirect-target) raises a security event, i.e.
	// probabilistically migrates away.
	TriggerMigration int
	// Survivors counts in-cache gadgets at already-translated indirect
	// targets or call sites — the only migration-free entries.
	Survivors int
	// SufficientForExploit reports whether the survivors can populate the
	// four execve registers (the minimal shellcode of §6).
	SufficientForExploit bool
}

// SimulateJITROP runs the census's binary under a PSR VM for warmupSteps
// to reach steady state, then evaluates the code-reuse surface the cache
// leak exposes among the viable gadgets of the x86 census.
func SimulateJITROP(c *gadget.Census, cfg dbt.Config, warmupSteps uint64) (JITROPResult, error) {
	bin := c.Bin
	res := JITROPResult{Benchmark: bin.Module}
	cfg.MigrateProb = 0 // measurement run; migration is modeled analytically
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		return res, err
	}
	if _, err := vm.Run(warmupSteps); err != nil {
		return res, err
	}
	cache := vm.Cache(isa.X86)

	popRegs := map[isa.Reg]bool{}
	for i := range c.Gadgets {
		g, e := &c.Gadgets[i], c.Effects[i]
		if !e.Viable() {
			continue
		}
		res.TotalViable++
		if !regionTranslated(bin, cache, g.Addr) {
			continue // outside the cache: undiscoverable by the leak
		}
		res.InCache++
		// Chaining into the gadget is an indirect transfer; unless its
		// address is a known indirect target, the VM raises a security
		// event and may migrate.
		if cache.IsIndirectTarget(g.Addr) {
			res.Survivors++
			for r := range e.Pops {
				popRegs[r] = true
			}
		} else {
			res.TriggerMigration++
		}
	}
	needed := 0
	for _, r := range execveRegs {
		if popRegs[r] {
			needed++
		}
	}
	res.SufficientForExploit = needed == len(execveRegs)
	return res, nil
}

// regionTranslated reports whether a live translation covers addr — the
// JIT-ROP attacker's "discoverable through a cache leak" test.
func regionTranslated(bin *fatbin.Binary, cache *dbt.CodeCache, addr uint32) bool {
	if bin.FuncAt(isa.X86, addr) == nil {
		return false
	}
	return cache.Covered(addr)
}
