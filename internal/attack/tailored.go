package attack

import (
	"math"

	"hipstr/internal/compiler"
	"hipstr/internal/fatbin"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/prog"
)

// Technique names the randomization schemes compared in Figures 7, 8,
// and 14.
type Technique int

const (
	TechIsomeron Technique = iota
	TechHetISA             // heterogeneous-ISA migration alone
	TechPSR
	TechPSRIsomeron
	TechHIPStR
)

func (t Technique) String() string {
	switch t {
	case TechIsomeron:
		return "Isomeron"
	case TechHetISA:
		return "Heterogeneous-ISA"
	case TechPSR:
		return "PSR"
	case TechPSRIsomeron:
		return "PSR+Isomeron"
	case TechHIPStR:
		return "HIPStR"
	}
	return "?"
}

// EntropyBits returns the Figure 7 entropy (in bits) of a gadget chain of
// length n under each technique. Diversification techniques contribute one
// bit per gadget (which variant/ISA executes it); PSR contributes
// psrBitsPerGadget bits of state-relocation entropy per gadget; the
// combined defenses multiply (add in bits).
func EntropyBits(t Technique, chainLen int, psrBitsPerGadget float64) float64 {
	div := float64(chainLen) // 2^n for a length-n chain
	switch t {
	case TechIsomeron, TechHetISA:
		return div
	case TechPSR:
		return psrBitsPerGadget * float64(chainLen)
	case TechPSRIsomeron, TechHIPStR:
		return div + psrBitsPerGadget*float64(chainLen)
	}
	return 0
}

// Entropy returns 2^EntropyBits, saturating at +Inf for large exponents.
func Entropy(t Technique, chainLen int, psrBitsPerGadget float64) float64 {
	return math.Pow(2, EntropyBits(t, chainLen, psrBitsPerGadget))
}

// TailoredResult is the Figure 8 analysis for one benchmark: how many
// gadgets remain usable by an attacker who interleaves gadgets from both
// program variants (Isomeron) or both ISAs (HIPStR), as the
// diversification probability varies.
type TailoredResult struct {
	Benchmark string
	// Viable is the full viable-gadget population (the p=0 surface for
	// non-PSR techniques).
	Viable int
	// PSRSurface is the PSR-surviving (unobfuscated) population — the p=0
	// surface for PSR-based techniques.
	PSRSurface int
	// SameISAImmune counts gadgets that behave identically in both
	// same-ISA program variants (immune to Isomeron's diversification).
	SameISAImmune int
	// CrossISAImmune counts gadgets whose address performs the same
	// attacker computation on both ISAs (immune to ISA randomization) —
	// structurally near-impossible with disjoint text mappings.
	CrossISAImmune int
	// PSRSameISAImmune counts PSR-surviving gadgets also immune to
	// same-ISA diversification.
	PSRSameISAImmune int
}

// Surviving returns the Figure 8 curve: the expected usable surface under
// technique t at diversification probability p.
func (r TailoredResult) Surviving(t Technique, p float64) float64 {
	switch t {
	case TechIsomeron:
		return float64(r.SameISAImmune) + (1-p)*float64(r.Viable-r.SameISAImmune)
	case TechHetISA:
		return float64(r.CrossISAImmune) + (1-p)*float64(r.Viable-r.CrossISAImmune)
	case TechPSR:
		return float64(r.PSRSurface)
	case TechPSRIsomeron:
		return float64(r.PSRSameISAImmune) + (1-p)*float64(r.PSRSurface-r.PSRSameISAImmune)
	case TechHIPStR:
		return float64(r.CrossISAImmune) + (1-p)*float64(r.PSRSurface)
	}
	return 0
}

// AnalyzeTailored measures the immunity populations over the viable
// gadgets of c, the x86 census of mod's binary. The Isomeron variant is a
// diversified compilation of the same program (intra-function block
// layout shuffled, nops inserted); a gadget is same-ISA immune when the
// corresponding function-relative address in the variant performs the
// same attacker-visible computation — Isomeron's diversifier maps control
// transfers between variants at function granularity, so that is exactly
// the code a diversified chain executes.
func AnalyzeTailored(mod *prog.Module, c *gadget.Census, psrSurvivors int, seed int64) (TailoredResult, error) {
	bin := c.Bin
	res := TailoredResult{Benchmark: bin.Module, PSRSurface: psrSurvivors}
	variant, err := compiler.CompileDiversified(mod, seed)
	if err != nil {
		return res, err
	}
	anVar := gadget.NewAnalyzer(variant)
	sameFrac := 0.0
	for i := range c.Gadgets {
		g, e := &c.Gadgets[i], c.Effects[i]
		if !e.Viable() {
			continue
		}
		res.Viable++
		// Same-ISA immunity: Isomeron's diversifier maps control-transfer
		// targets between variants at valid instruction boundaries, so
		// the corresponding variant address is block-relative. Block
		// contents are identical between variants (only placement and
		// padding differ), so aligned gadgets survive; unintentional
		// (unaligned) gadgets land on shifted bytes and break.
		if vAddr, ok := variantAddr(bin, variant, g.Addr); ok {
			vg := *g
			vg.Addr = vAddr
			ev := anVar.NativeEffect(&vg)
			if e.SameOutcome(ev) {
				res.SameISAImmune++
			}
		}
		// Cross-ISA immunity: the address must decode on the other ISA's
		// text at all (disjoint bases make this structurally rare).
		if addrInText(variant, isa.ARM, g.Addr) || addrInText(bin, isa.ARM, g.Addr) {
			res.CrossISAImmune++
		}
	}
	if res.Viable > 0 {
		sameFrac = float64(res.SameISAImmune) / float64(res.Viable)
	}
	// PSR-surviving gadgets inherit the same-ISA immunity rate.
	res.PSRSameISAImmune = int(math.Round(sameFrac * float64(res.PSRSurface)))
	return res, nil
}

func addrInText(bin *fatbin.Binary, k isa.Kind, addr uint32) bool {
	base, end := bin.TextRange(k)
	return addr >= base && addr < end
}

// variantAddr maps an address in bin to the corresponding address in the
// diversified variant, block-relative (epilogue-relative for the shared
// epilogue region after the last block).
func variantAddr(bin, variant *fatbin.Binary, addr uint32) (uint32, bool) {
	fn, blk := bin.BlockAt(isa.X86, addr)
	if fn == nil {
		return 0, false
	}
	vfn := variant.Func(fn.Name)
	if vfn == nil {
		return 0, false
	}
	if blk != nil {
		vblk := vfn.BlockByID(blk.ID)
		if vblk == nil {
			return 0, false
		}
		v := vblk.Addr[isa.X86] + (addr - blk.Addr[isa.X86])
		if v >= vblk.End[isa.X86] {
			return 0, false
		}
		return v, true
	}
	// Epilogue region.
	if len(fn.Blocks) == 0 || len(vfn.Blocks) == 0 {
		return 0, false
	}
	epi := fn.Blocks[len(fn.Blocks)-1].End[isa.X86]
	vepi := vfn.Blocks[len(vfn.Blocks)-1].End[isa.X86]
	if addr < epi {
		return 0, false
	}
	v := vepi + (addr - epi)
	if v >= vfn.End[isa.X86] {
		return 0, false
	}
	return v, true
}
