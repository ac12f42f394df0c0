// Package hipstr is a full reproduction of "HIPStR: Heterogeneous-ISA
// Program State Relocation" (Venkat, Shamasunder, Tullsen, Shacham —
// ASPLOS 2016): a security defense that thwarts return-oriented
// programming by combining run-time randomization of program state
// (registers and stack objects) with non-deterministic execution migration
// between the two ISAs of a heterogeneous chip multiprocessor.
//
// The package is the public facade over the complete system:
//
//   - a multi-ISA compiler producing fat binaries with a common stack
//     frame organization and an extended symbol table,
//   - two synthetic ISAs (a byte-dense x86-like and a strict, aligned
//     ARM-like) with encoders, decoders, and interpreters,
//   - the PSR virtual machines: dynamic binary translators that randomize
//     calling conventions, register allocation, and stack slot coloring
//     per function, police every indirect control transfer, and model the
//     hardware Return Address Table,
//   - PSR-aware cross-ISA migration with full stack transformation,
//   - the attack suite (return-into-libc, ROP chains, Algorithm 1 brute
//     force, JIT-ROP, tailored diversification bypass, Blind-ROP) and the
//     Galileo gadget miner,
//   - the cycle-approximate timing model of the paper's Table 1 cores,
//   - and the benchmark generator plus experiment drivers regenerating
//     every table and figure of the paper's evaluation.
//
// Quick start:
//
//	bin, _ := hipstr.CompileWorkload("libquantum")
//	sys, _ := hipstr.Protect(bin, hipstr.Defaults())
//	sys.Run(1_000_000)
package hipstr

import (
	"context"
	"fmt"
	"io"

	"hipstr/internal/attack"
	"hipstr/internal/compiler"
	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/experiments"
	"hipstr/internal/fatbin"
	"hipstr/internal/fleet"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/perf"
	"hipstr/internal/proc"
	"hipstr/internal/profiler"
	"hipstr/internal/prog"
	"hipstr/internal/psr"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// ISA identifies one of the CMP's instruction sets.
type ISA = isa.Kind

// The two ISAs of the heterogeneous CMP.
const (
	X86 = isa.X86
	ARM = isa.ARM
)

// Binary is a compiled multi-ISA fat binary.
type Binary = fatbin.Binary

// Module is an architecture-neutral program (the compiler's input); build
// one with NewProgram.
type Module = prog.Module

// ProgramBuilder constructs Modules.
type ProgramBuilder = prog.ModuleBuilder

// NewProgram starts an empty program.
func NewProgram(name string) *ProgramBuilder { return prog.NewModule(name) }

// BinOp is an IR arithmetic operator.
type BinOp = prog.BinOp

// IR operators.
const (
	Add = prog.BinAdd
	Sub = prog.BinSub
	Mul = prog.BinMul
	Div = prog.BinDiv
	And = prog.BinAnd
	Or  = prog.BinOr
	Xor = prog.BinXor
	Shl = prog.BinShl
	Shr = prog.BinShr
)

// Cond is an IR branch condition.
type Cond = isa.Cond

// Branch conditions.
const (
	EQ = isa.CondEQ
	NE = isa.CondNE
	LT = isa.CondLT
	GE = isa.CondGE
	GT = isa.CondGT
	LE = isa.CondLE
)

// Compile lowers a program to both ISAs.
func Compile(m *Module) (*Binary, error) { return compiler.Compile(m) }

// Workloads lists the benchmark suite (the paper's eight SPEC-like
// programs; "httpd" is additionally available).
func Workloads() []string { return workload.Names() }

// CompileWorkload generates and compiles a named benchmark.
func CompileWorkload(name string) (*Binary, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("hipstr: unknown workload %q (have %v)", name, workload.Names())
	}
	return workload.Compile(p)
}

// Config configures a protected process.
type Config = core.Config

// Mode selects the defense layers.
type Mode = core.Mode

// Defense modes.
const (
	ModePSR    = core.ModePSR
	ModeHIPStR = core.ModeHIPStR
)

// Defaults returns the paper's main configuration: PSR at -O3 with 8 KiB
// randomization space, 2 MiB code caches, a 512-entry RAT, and migration
// probability 1 on security events.
func Defaults() Config { return core.DefaultConfig() }

// System is a process protected by HIPStR.
type System = core.System

// Protect boots bin under the configured defense.
func Protect(bin *Binary, cfg Config) (*System, error) { return core.New(bin, cfg) }

// SystemSnapshot is a frozen copy-on-write image of a protected process:
// memory, registers, translated code, and relocation-map build order.
// Snapshot a booted prototype once, then materialize guests from it with
// Fork (warm spawn: same translations, O(dirty pages), and predecoded
// blocks shared with every sibling fork whose code bytes still match) or
// Respawn (kill+respawn with a fresh PSR seed — the paper's §5.3 breach
// response made cheap; a respawn decodes its own blocks).
//
//	proto, _ := hipstr.Protect(bin, hipstr.Defaults())
//	snap := proto.Snapshot()
//	guest, _ := snap.Fork(hipstr.ForkConfig{})          // warm spawn
//	fresh, _ := snap.Respawn(newSeed, hipstr.ForkConfig{}) // re-randomized
type SystemSnapshot = core.Snapshot

// ForkConfig parameterizes one fork of a SystemSnapshot (per-fork
// telemetry; nil means a private instance whose event ring keeps the
// snapshot's Config.DBT.TraceCap events).
type ForkConfig = dbt.ForkConfig

// SharedUnitCacheStats reports the process-wide content-addressed
// translation cache: how many translations were served from (hits) or
// published into (installs) the shared cache, and the code bytes whose
// re-translation hits avoided.
type SharedUnitCacheStats = dbt.UnitCacheStats

// SharedUnitCache returns stats for the process-wide shared translation
// cache that every VM consults by default (dbt.Config.NoSharedUnits opts
// a VM out; dbt.Config.SharedUnits injects a private cache).
func SharedUnitCache() SharedUnitCacheStats { return dbt.SharedUnits.Stats() }

// Telemetry is the unified observability unit every System carries: a
// hierarchical metrics registry (counters, gauges, log-bucketed
// histograms) plus a structured event tracer with pluggable sinks.
// Access it through System.Telemetry(), or create one with NewTelemetry
// and inject it via Config.DBT.Telemetry to share a registry across
// subsystems or attach trace sinks before boot.
type Telemetry = telemetry.Telemetry

// MetricsSnapshot is a point-in-time copy of every metric, with delta
// semantics and JSON export.
type MetricsSnapshot = telemetry.Snapshot

// TraceEvent is one structured runtime event (translation, cache flush,
// RAT miss, security event, policy decision, migration begin/end, ...).
type TraceEvent = telemetry.Event

// TraceSink receives every trace event as it is emitted.
type TraceSink = telemetry.Sink

// Span is one in-flight trace span; the zero Span is valid and inert, so
// instrumentation sites need no enabled/disabled branches.
type Span = telemetry.Span

// SpanEvent is one completed span record, carrying wall-clock and
// guest-cycle durations plus the modeled cost attributed to the span.
type SpanEvent = telemetry.SpanEvent

// SpanTracer records completed spans into a bounded ring with sink
// fan-out; enable one on a Telemetry via its EnableSpans method.
type SpanTracer = telemetry.SpanTracer

// WriteChromeTrace writes spans (plus optional point events) as Chrome
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []SpanEvent, events []TraceEvent) error {
	return telemetry.WriteChromeTrace(w, spans, events)
}

// NewTelemetry returns a fresh metrics registry + event tracer pair.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewJSONLTraceSink returns a sink writing one JSON object per record to
// w. It serves both tracers: attach it with tel.Trace.AddSink for events
// and, with spans enabled, tel.Spans.AddSink for completed spans, which
// then interleave in emission order ("kind":"span" marks span lines).
// Check its Err after the run: the first failed write stops the sink.
func NewJSONLTraceSink(w io.Writer) *telemetry.JSONLSink { return telemetry.NewJSONLSink(w) }

// Profiler is the guest-cycle sampling profiler: it attributes simulated
// cycles to guest basic blocks and functions (symbolized via the fat
// binary's extended symbol table), including cycles spent in PSR code
// caches, and exports hot-block tables and folded flamegraph stacks.
type Profiler = profiler.Profiler

// ProfileReport is a point-in-time profile summary.
type ProfileReport = profiler.Report

// NewProfiler returns a profiler symbolizing against bin, sampling every
// interval guest instructions (0 selects the default period). Wire it
// with Attach (wraps the machine's timing observer), BindModel
// (timing-model cycles), and SetClassResolver (code-cache PC mapping,
// e.g. dbt.VM.ResolvePCClass).
func NewProfiler(bin *Binary, interval uint64) *Profiler { return profiler.New(bin, interval) }

// Fleet is a multi-tenant host: it admits guest VMs forked from
// per-workload prototype snapshots (warm admission) and executes them on
// a bounded worker pool fed by one host-owned run queue, under per-tenant
// policy (step and cache quotas, migration probability, kill/respawn
// under attack).
//
//	h := hipstr.NewFleet(hipstr.FleetDefaults())
//	h.AddWorkload("libquantum")
//	h.Start(ctx)
//	id, _ := h.Admit("libquantum")
//	h.Close()
//	h.Wait()
type Fleet = fleet.Host

// FleetConfig configures a Fleet (worker count, defense mode, seed,
// default tenant policy, warm vs cold admission).
type FleetConfig = fleet.Config

// FleetPolicy is the per-tenant resource and defense policy.
type FleetPolicy = fleet.Policy

// FleetAggregates is a point-in-time summary of fleet progress.
type FleetAggregates = fleet.Aggregates

// FleetTenant is one admitted guest's handle (state, digest, steps,
// latency).
type FleetTenant = fleet.Tenant

// FleetDefaults returns the default fleet configuration: GOMAXPROCS
// workers, HIPStR mode, warm admission, and the default tenant policy.
func FleetDefaults() FleetConfig { return fleet.DefaultConfig() }

// NewFleet creates a fleet host; call AddWorkload for each profile
// tenants will run, then Start before Admit.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.NewHost(cfg) }

// Arrivals is a seeded open-loop Poisson arrival generator for fleet
// traffic (deterministic per seed).
type Arrivals = workload.Arrivals

// NewArrivals returns an arrival generator targeting ratePerSec
// admissions per second (rate <= 0 means back-to-back, zero gaps).
func NewArrivals(seed int64, ratePerSec float64) *Arrivals {
	return workload.NewArrivals(seed, ratePerSec)
}

// Process is an unprotected native process (the baseline).
type Process = proc.Process

// RunNative boots bin for native execution on ISA k.
func RunNative(bin *Binary, k ISA) (*Process, error) { return proc.New(bin, k) }

// Gadget is a code-reuse gadget; Effect its concrete behavior.
type Gadget = gadget.Gadget

// Effect captures a gadget's attacker-visible behavior.
type Effect = gadget.Effect

// MineGadgets runs the Galileo miner over bin's ISA-k text section.
func MineGadgets(bin *Binary, k ISA) []Gadget { return gadget.Mine(bin, k, 0) }

// GadgetEffect concretely executes a gadget against an attacker stack.
func GadgetEffect(bin *Binary, g *Gadget) Effect {
	return gadget.NewAnalyzer(bin).NativeEffect(g)
}

// Victim is a program with a stack-overflow vulnerability, for attack
// demonstrations.
type Victim = attack.Victim

// AttackOutcome classifies attack attempts.
type AttackOutcome = attack.Outcome

// Attack outcomes.
const (
	OutcomeShell    = attack.OutcomeShell
	OutcomeCrash    = attack.OutcomeCrash
	OutcomeKilled   = attack.OutcomeKilled
	OutcomeNoEffect = attack.OutcomeNoEffect
)

// NewVictim compiles a vulnerable program with the given amount of
// gadget-rich library code.
func NewVictim(workers int) (*Victim, error) { return attack.BuildVictim(workers) }

// BruteForceResult is a Table 2 row.
type BruteForceResult = attack.BruteForceResult

// SimulateBruteForce runs the paper's Algorithm 1 against bin.
func SimulateBruteForce(bin *Binary, seed int64) BruteForceResult {
	return attack.SimulateBruteForce(gadget.TakeCensus(bin, isa.X86), psr.DefaultConfig(), seed)
}

// MigrationSafety is the Figure 6 analysis.
type MigrationSafety = migrate.SafetyReport

// AnalyzeMigrationSafety classifies every basic block by migration safety.
func AnalyzeMigrationSafety(bin *Binary) MigrationSafety {
	return migrate.AnalyzeSafety(bin, migrate.OnDemandCapacity)
}

// Measurement is a work-normalized timing result.
type Measurement = perf.Measurement

// MeasurePSR runs bin under a PSR virtual machine and measures the work
// window between progress markers warm and warm+measure.
func MeasurePSR(bin *Binary, k ISA, warm, measure int) (Measurement, error) {
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	m, _, _, err := perf.MeasureVM(bin, k, cfg, warm, measure)
	return m, err
}

// MeasureNative measures native execution over the same window.
func MeasureNative(bin *Binary, k ISA, warm, measure int) (Measurement, error) {
	return perf.MeasureNative(bin, k, warm, measure)
}

// ExperimentSuite regenerates the paper's tables and figures. Set
// Parallel to bound the per-driver worker pool (0 = GOMAXPROCS, 1 =
// serial) and Telemetry to export every figure's raw series as metrics.
// A suite is one evaluation: it computes each distinct simulation and
// gadget census once, so running an experiment again on the same suite
// reuses the first run's results. Re-measuring needs a fresh suite.
type ExperimentSuite = experiments.Suite

// NewExperiments returns the full-suite experiment driver writing
// human-readable tables to w.
func NewExperiments(w io.Writer) *ExperimentSuite { return experiments.NewSuite(w) }

// NewQuickExperiments returns a reduced suite for fast runs.
func NewQuickExperiments(w io.Writer) *ExperimentSuite { return experiments.QuickSuite(w) }

// Experiment is one registered evaluation driver: named, self-describing,
// and runnable by the experiment engine.
type Experiment = experiments.Experiment

// ExperimentResult is one driver's structured rows plus run metadata — the
// schema of the per-experiment JSON result artifacts.
type ExperimentResult = experiments.Result

// ExperimentOptions configures an engine run (result artifact directory,
// error policy).
type ExperimentOptions = experiments.Options

// Experiments returns every registered experiment in evaluation order.
func Experiments() []Experiment { return experiments.All() }

// SelectExperiments resolves a comma-separated experiment name list; an
// empty string selects the full evaluation.
func SelectExperiments(names string) ([]Experiment, error) { return experiments.Select(names) }

// RunExperiments executes exps against s on the experiment engine:
// per-driver sweeps fan out on s.Parallel workers with deterministic
// output, rows are published into s.Telemetry, and each experiment can
// write a JSON result artifact. Cancel ctx to stop mid-sweep.
func RunExperiments(ctx context.Context, s *ExperimentSuite, exps []Experiment, opts ExperimentOptions) ([]ExperimentResult, error) {
	return experiments.Run(ctx, s, exps, opts)
}
