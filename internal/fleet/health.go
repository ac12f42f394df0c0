package fleet

import (
	"time"

	"hipstr/internal/health"
)

// DefaultHealthRules is the built-in fleet rule set the health engine
// evaluates against the host's aggregate registry. Thresholds are
// deliberately conservative defaults — a quiet fleet (attack probability
// zero, uncontended latency) trips none of them, which the no-storm
// incident tests pin — and every rule carries open/resolve hysteresis so
// a single-sample spike cannot flap an incident.
func DefaultHealthRules() []health.Rule {
	return []health.Rule{
		{
			Name:        "respawn-storm",
			Series:      "fleet.respawns",
			Kind:        health.KindRate,
			Threshold:   5, // respawns/sec, fleet-wide
			Window:      3 * time.Second,
			For:         300 * time.Millisecond,
			Cooldown:    time.Second,
			Severity:    "page",
			OffenderKey: "respawns",
			Description: "kill/respawn churn: tenants are being re-randomized faster than steady state allows (attack wave or crash loop)",
		},
		{
			Name:        "attack-wave",
			Series:      "fleet.breaches",
			Kind:        health.KindRate,
			Threshold:   25, // breach detections/sec
			Window:      3 * time.Second,
			For:         300 * time.Millisecond,
			Cooldown:    time.Second,
			Severity:    "page",
			OffenderKey: "respawns",
			Description: "security-event detections (injected or real ErrSecurityKill) arriving as a sustained wave",
		},
		{
			Name:        "latency-slo-burn",
			Series:      "fleet.latency_p99_us",
			Kind:        health.KindBurn,
			Threshold:   2e6, // p99 objective: 2s admission-to-retirement
			Fraction:    0.5,
			Window:      latencySLOWindow,
			For:         time.Second,
			Cooldown:    2 * time.Second,
			Severity:    "warn",
			OffenderKey: "latency_us",
			Description: "p99 latency of the tenants retired in the last window above the 2s objective for most of the window: the error budget is burning, not blipping",
		},
		{
			Name:        "injector-starvation",
			Series:      "fleet.injector_depth",
			Kind:        health.KindDeriv,
			Threshold:   50, // queued tenants/sec of sustained growth
			Window:      5 * time.Second,
			For:         5 * time.Second,
			Cooldown:    2 * time.Second,
			Severity:    "page",
			OffenderKey: "slices",
			Description: "admission queue depth (tenants admitted but never run) growing without relief: admission outpaces execution and new tenants are starving",
		},
	}
}
