package gadget

import (
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
)

// Census is one binary's gadget population on one ISA: every mined gadget
// with its native effect. It is read-only once taken, so the figures and
// attacks that analyze the same binary share one.
type Census struct {
	Bin     *fatbin.Binary
	Gadgets []Gadget
	// Effects[i] is NativeEffect of Gadgets[i].
	Effects []Effect
}

// TakeCensus mines bin's ISA-k text and executes every gadget natively on
// one Analyzer, in mining order. Each run resets the registers and
// rewrites the attacker stack, and an effect does not depend on which
// gadgets ran before it (TestCensusOrderIndependent), so a census equals
// a fresh Analyzer per gadget.
func TakeCensus(bin *fatbin.Binary, k isa.Kind) *Census {
	gs := Mine(bin, k, 0)
	an := NewAnalyzer(bin)
	effects := make([]Effect, len(gs))
	for i := range gs {
		effects[i] = an.NativeEffect(&gs[i])
	}
	return &Census{Bin: bin, Gadgets: gs, Effects: effects}
}
