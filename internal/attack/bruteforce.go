package attack

import (
	"math"
	"sort"

	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/psr"
)

// BruteForceResult carries one Table 2 row plus the Figure 4 surface
// split.
type BruteForceResult struct {
	Benchmark     string
	TotalGadgets  int
	ViableGadgets int     // Figure 4 "surviving" (viable for brute force)
	AvgParams     float64 // Table 2: randomizable params (avg)
	EntropyBits   float64 // Table 2: entropy per gadget
	// AttemptsNoBias / AttemptsBias are the expected brute-force attempt
	// counts for the four-register execve exploit of Algorithm 1, without
	// and with the register-bias optimization.
	AttemptsNoBias float64
	AttemptsBias   float64
	// ChainFound reports whether Algorithm 1 completed a four-gadget
	// chain at all.
	ChainFound bool
}

// execveRegs are the registers Algorithm 1 must populate for the
// execve(2) system call (Figure 1).
var execveRegs = []isa.Reg{isa.EAX, isa.EBX, isa.ECX, isa.EDX}

// SimulateBruteForce runs Algorithm 1 of the paper against the census's
// binary: from every viable gadget of the x86 census, greedily assemble
// the four-gadget shellcode chain (register by register, never clobbering
// established state, preferring gadgets whose randomized return-address
// offset is lowest), and compute the expected attempt count.
//
// The attempt model follows §6: the attacker must brute force three
// independent unknowns per gadget — which gadget transforms usefully under
// the unseen relocation (X terms), the relocated position of the chained
// return address within the f-byte frame (Y terms), and the relocated
// position of the data, mitigated by spraying one register's value per
// frame (contributing the n = f compounding factor between stages):
//
//	B = Y[0] + f·X[0] + n·f·Y[1] + n·f²·X[1] + ... + n³·f⁴·X[3]
func SimulateBruteForce(c *gadget.Census, cfg psr.Config, seed int64) BruteForceResult {
	bin := c.Bin
	res := BruteForceResult{Benchmark: bin.Module, TotalGadgets: len(c.Gadgets)}
	rnd := psr.NewRandomizer(seed, cfg)

	type viable struct {
		g    *gadget.Gadget
		e    gadget.Effect
		aRet float64 // randomized return-address offset A(g)
	}
	var pool []viable
	var paramSum float64
	maps := map[int]*psr.Map{}
	for i := range c.Gadgets {
		g, e := &c.Gadgets[i], c.Effects[i]
		if !e.Viable() {
			continue
		}
		fn := bin.FuncAt(isa.X86, g.Addr)
		if fn == nil {
			continue
		}
		m, ok := maps[fn.Index]
		if !ok {
			m = rnd.Build(fn, isa.X86)
			maps[fn.Index] = m
		}
		pool = append(pool, viable{g: g, e: e, aRet: float64(m.RetOff)})
		paramSum += float64(e.Params())
	}
	res.ViableGadgets = len(pool)
	if len(pool) == 0 {
		return res
	}
	res.AvgParams = paramSum / float64(len(pool))

	f := float64(cfg.RandSpace())
	res.EntropyBits = res.AvgParams * math.Log2(f)

	// Algorithm 1: populate one register at a time; candidates ordered by
	// randomized return-address offset (line 8: minimize A(g)).
	sort.Slice(pool, func(i, j int) bool { return pool[i].aRet < pool[j].aRet })
	established := map[isa.Reg]bool{}
	var X []float64 // 1-based candidate index of each chosen gadget
	var Y []float64 // A(g) of each chosen gadget
	for _, r := range execveRegs {
		found := false
		for idx, c := range pool {
			if _, pops := c.e.Pops[r]; !pops {
				continue
			}
			clobbers := false
			for _, cr := range c.e.Clobbered {
				if established[cr] {
					clobbers = true
				}
			}
			for pr := range c.e.Pops {
				if pr != r && established[pr] {
					clobbers = true
				}
			}
			if clobbers {
				continue
			}
			established[r] = true
			X = append(X, float64(idx+1))
			Y = append(Y, c.aRet)
			found = true
			break
		}
		if !found {
			// No gadget populates this register without clobbering: the
			// attacker must brute force the full pool for this stage.
			X = append(X, float64(len(pool)))
			Y = append(Y, f)
		}
	}
	res.ChainFound = len(established) == len(execveRegs)

	// B = Y[0] + f·X[0] + n·f·Y[1] + n·f²·X[1] + ... (n = f: the sprayed
	// data positions compound between stages).
	n := f
	b := 0.0
	for k := 0; k < len(X); k++ {
		nk := math.Pow(n, float64(k))
		fk := math.Pow(f, float64(k))
		b += nk*fk*Y[k] + nk*fk*f*X[k]
	}
	res.AttemptsNoBias = b

	// Register bias relocates at least three registers to other registers:
	// for those parameters the search space per guess shrinks to the
	// register file, but a biased gadget is likelier to keep computing in
	// registers, enlarging the viable pool the attacker must sweep. Net
	// effect (as in Table 2): same order of magnitude, shifted by the
	// ratio of the mixed parameter space.
	regFile := 7.0
	biasFrac := 3.0 / math.Max(res.AvgParams, 3.0)
	fBias := math.Exp((1-biasFrac)*math.Log(f) + biasFrac*math.Log(regFile*math.Sqrt(f)))
	bBias := 0.0
	for k := 0; k < len(X); k++ {
		nk := math.Pow(n, float64(k))
		fk := math.Pow(fBias, float64(k))
		bBias += nk*fk*Y[k] + nk*fk*fBias*X[k]
	}
	res.AttemptsBias = bBias
	return res
}
