package attack

import (
	"math"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
)

// BlindROPModel compares expected attack effort against load-time and
// run-time randomization under the crash/respawn threat model of §5.3: a
// parent re-spawns the worker on every crash, and the attacker probes one
// unknown at a time.
type BlindROPModel struct {
	// EntropyBits is the per-unknown randomization entropy.
	EntropyBits float64
	// Unknowns is how many independent values the exploit needs (gadget
	// locations, data slots, return-address slots).
	Unknowns int
}

// LoadTimeAttempts is the expected probe count against load-time
// randomization: state survives respawn, so each unknown is probed
// incrementally and the costs ADD (the Blind-ROP result — thousands of
// attempts even against 64-bit ASLR).
func (m BlindROPModel) LoadTimeAttempts() float64 {
	perUnknown := math.Pow(2, m.EntropyBits) / 2 // expected scan to hit
	return float64(m.Unknowns) * perUnknown
}

// RunTimeAttempts is the expected count against run-time (respawn-
// re-randomized) PSR: nothing learned survives a crash, so all unknowns
// must be guessed simultaneously and the costs MULTIPLY.
func (m BlindROPModel) RunTimeAttempts() float64 {
	return math.Pow(math.Pow(2, m.EntropyBits), float64(m.Unknowns)) / 2
}

// RespawnProbe drives a real Blind-ROP-style campaign against a protected
// victim: each attempt sprays the overflow budget with a gadget address
// into a worker respawned from the booted victim's snapshot under fresh
// randomization, as a forking server hands every connection a fresh
// child of its parent's image. It returns the number of attempts that
// hijacked control (observed security events) and how many spawned a
// shell. With an 8 KiB randomization space and a bounded overflow,
// control hijack is rare and shells rarer still — and, crucially, the
// hit rate does NOT improve across attempts.
func RespawnProbe(v *Victim, cfg core.Config, attempts int) (hijacks, shells int, err error) {
	parent, err := core.New(v.Bin, cfg)
	if err != nil {
		return 0, 0, err
	}
	snap := parent.Snapshot()
	payload := v.SprayPayload(NetBufWords - 1)
	for i := 1; i <= attempts; i++ {
		s, err := snap.Respawn(cfg.DBT.Seed+int64(i)*0x9E3779B9, dbt.ForkConfig{})
		if err != nil {
			return hijacks, shells, err
		}
		if err := inject(s.VM.P.Mem, v.NetBuf, payload); err != nil {
			return hijacks, shells, err
		}
		_, runErr := s.Run(attackMaxSteps)
		if s.SecurityEvents() > 0 {
			hijacks++
		}
		if v.shellSpawned(s.VM.P) {
			shells++
		}
		_ = runErr // crashes simply trigger the next respawn
	}
	return hijacks, shells, nil
}
