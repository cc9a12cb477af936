// Package flashfc is a simulation-based reproduction of "Hardware Fault
// Containment in Scalable Shared-Memory Multiprocessors" (Teodosiu, Baxter,
// Govil, Chapin, Rosenblum, Horowitz — ISCA 1997): the fault-containment
// support added to the Stanford FLASH multiprocessor and the distributed
// four-phase recovery algorithm that restores operation after a hardware
// fault, together with a model of the Hive operating system's containment
// contract and the full experiment suite of the paper's evaluation section.
//
// The package is a façade over the internal packages:
//
//   - NewMachine builds a complete simulated FLASH system: mesh or
//     hypercube interconnect with virtual lanes and source routing, MAGIC
//     node controllers running a directory-based coherence protocol with
//     the paper's containment features (node map, firewall, range check,
//     vector remap, NAK counters, operation timeouts), processors, and one
//     recovery agent per node.
//   - A Machine implements fault injection (Table 5.2 fault classes),
//     whole-memory verification against a ground-truth oracle (§5.2), and
//     per-phase recovery-time aggregation (Fig 5.5/5.6).
//   - NewHive partitions a machine into Hive cells over hardware failure
//     units, with firewalled kernel pages, exactly-once inter-cell RPC and
//     OS recovery (§3.3, §4.6); NewParallelMake builds the §5.1 workload.
//   - The experiment drivers regenerate every table and figure of §5:
//     single runs through RunValidation, and every batch and sweep
//     through the one campaign path — RunCampaign with a per-family
//     experiment struct (ValidationCampaign, EndToEndCampaign,
//     Fig55Campaign, … or any custom Experiment[T]). RunTailCampaign and
//     RunRoutingCampaign are loops over the same path that reduce its runs
//     to percentile tables.
//   - Performance claims go through the ledger: BENCHMARK.json and the
//     bench/ module (go run -C bench .), not ad-hoc benchmark files.
//
// A minimal session:
//
//	cfg := flashfc.DefaultMachineConfig(16)
//	m := flashfc.NewMachine(cfg)
//	m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 5}, flashfc.Millisecond)
//	m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, 5)) // detection traffic
//	if m.RunUntilRecovered(2 * flashfc.Second) {
//	    fmt.Println(m.Aggregate().Total) // suspension time
//	}
package flashfc

import (
	"io"

	"flashfc/internal/coherence"
	"flashfc/internal/experiments"
	"flashfc/internal/fault"
	"flashfc/internal/hive"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/proc"
	"flashfc/internal/routing"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/stats"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
)

// Simulation time.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Machine assembly.
type (
	// Machine is a complete simulated FLASH system.
	Machine = machine.Machine
	// MachineConfig describes a machine to build.
	MachineConfig = machine.Config
	// MachineNode bundles one node's components.
	MachineNode = machine.Node
	// PhaseTimes aggregates per-phase recovery durations.
	PhaseTimes = machine.PhaseTimes
	// VerifyResult is the outcome of the whole-memory sweep.
	VerifyResult = machine.VerifyResult
	// TopoKind selects mesh or hypercube.
	TopoKind = machine.TopoKind
	// Addr is a physical address in the machine's global space.
	Addr = coherence.Addr
)

// Topology kinds.
const (
	TopoMesh      = machine.TopoMesh
	TopoHypercube = machine.TopoHypercube
)

// Machine configuration knobs worth noting: Config.ReliableInterconnect
// builds the §6.3 HAL-style machine (flush-free recovery, end-to-end
// retransmission); Config.Recovery.HardwiredController models the §6.2
// minimum-support variant.

// MachineSnapshot is a frozen machine image taken at a quiescent point
// (see Machine.Snapshot); MachineFromSnapshot forks it any number of times.
type MachineSnapshot = machine.Snapshot

// NewMachine builds and wires a machine.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// MachineFromSnapshot rehydrates an independent machine from a snapshot in
// O(non-memory state); memory and directory images are shared
// copy-on-write. tr (which may be nil) becomes the fork's tracer.
func MachineFromSnapshot(s *MachineSnapshot, tr *Tracer) *Machine {
	return machine.FromSnapshot(s, tr)
}

// DefaultMachineConfig returns a Table 5.1-style configuration.
func DefaultMachineConfig(nodes int) MachineConfig { return machine.DefaultConfig(nodes) }

// Faults (Table 5.2).
type (
	// Fault is one concrete injection.
	Fault = fault.Fault
	// FaultType is a fault class.
	FaultType = fault.Type
)

// Fault classes.
const (
	NodeFailure   = fault.NodeFailure
	RouterFailure = fault.RouterFailure
	LinkFailure   = fault.LinkFailure
	InfiniteLoop  = fault.InfiniteLoop
	FalseAlarm    = fault.FalseAlarm
	TransientLink = fault.TransientLink
	FailSlow      = fault.FailSlow
	CPUFail       = fault.CPUFail
)

// AllFaultTypes lists the injectable fail-stop fault classes (Table 5.2).
func AllFaultTypes() []FaultType { return fault.AllTypes() }

// ExtendedFaultTypes lists the non-fail-stop classes beyond Table 5.2:
// transient-link, fail-slow, and CPU-fail/memory-survives.
func ExtendedFaultTypes() []FaultType { return fault.ExtendedTypes() }

// PowerLoss builds the compound fault for a partial power-supply failure:
// each listed node loses its controller, memory, router and links (§4.1).
// Inject with Machine.InjectAll.
func PowerLoss(m *Machine, nodes []int) []Fault { return fault.PowerLoss(m.Topo, nodes) }

// CableCut builds the compound fault for a disconnected inter-cabinet
// cable: every mesh link crossing between column x and x+1 fails (§4.1).
func CableCut(m *Machine, x int) []Fault { return fault.CableCut(m.Topo, x) }

// Processor operations.
type (
	// Op is a memory operation submitted to a CPU.
	Op = proc.Op
	// Result completes a memory operation.
	Result = magic.Result
)

// Operation kinds.
const (
	OpRead          = proc.OpRead
	OpReadExclusive = proc.OpReadExclusive
	OpWrite         = proc.OpWrite
)

// TouchOp builds a single read of a node's memory — the minimal probe that
// makes a quiet fault observable.
func TouchOp(m *Machine, target int) Op { return workload.TouchOp(m, target) }

// Tracer records one point stream and a span tree; attach one via
// MachineConfig.Trace or ValidationConfig.Trace. Points are packet
// lifecycles ("pkt"), MAGIC denials and triggers ("magic") and the
// timeline: every other point — fault injections, per-node phase
// transitions, completions — which Tracer.Dump prints and Tracer.Timeline
// returns. The span tree is the recovery hierarchy (recovery → per-node
// P1–P4 → gossip rounds, drain attempts, flush/scan). Export with
// Tracer.WriteChromeJSON (Perfetto-loadable) or analyze with
// Tracer.CriticalPaths / WriteCriticalReport.
type Tracer = trace.Tracer

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return trace.New() }

type (
	// SpanID identifies one span in a Tracer's span tree (0 = none).
	SpanID = trace.SpanID
	// TraceSpan is one named interval of the recovery span tree.
	TraceSpan = trace.Span
	// TracePoint is one instantaneous causal event.
	TracePoint = trace.Point
	// CriticalPath is the longest-latency span chain of one recovery.
	CriticalPath = trace.CriticalPath
)

// Metrics layer: every Machine owns a MetricsRegistry that all simulation
// layers report into (sim engine, interconnect, MAGIC controllers, recovery
// agents, machine harness). Machine.MetricsSnapshot freezes it; snapshots
// merge deterministically, so campaigns aggregate per-run snapshots into
// byte-stable tables and JSON for any worker count.
type (
	// MetricsRegistry is one machine's metric namespace.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a frozen, serializable view of a registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricSummary is the across-run distribution of one metric.
	MetricSummary = stats.Summary
)

// MergeMetrics folds per-run snapshots (in run order) into one aggregate.
func MergeMetrics(snaps []*MetricsSnapshot) *MetricsSnapshot { return runner.MergeMetrics(snaps) }

// SummarizeMetrics computes the across-run distribution of every counter
// and gauge in the per-run snapshots.
func SummarizeMetrics(snaps []*MetricsSnapshot) map[string]MetricSummary {
	return runner.SummarizeMetrics(snaps)
}

// WriteMetricsSummary renders SummarizeMetrics output as a sorted table.
func WriteMetricsSummary(w io.Writer, sums map[string]MetricSummary) {
	runner.WriteMetricsSummary(w, sums)
}

// ErrBusError terminates accesses to inaccessible, incoherent, firewalled
// or range-protected lines.
var ErrBusError = magic.ErrBusError

// ErrAborted completes accesses cut short by recovery; reissue after.
var ErrAborted = magic.ErrAborted

// Hive operating system model.
type (
	// Hive is an instance of the Hive OS model over a machine.
	Hive = hive.Hive
	// HiveConfig tunes the Hive model.
	HiveConfig = hive.Config
	// Cell is one Hive kernel managing one failure unit.
	Cell = hive.Cell
	// Make drives the §5.1 parallel-make workload.
	Make = hive.Make
	// MakeConfig tunes the workload.
	MakeConfig = hive.MakeConfig
	// MakeOutcome is the verdict of one end-to-end run.
	MakeOutcome = hive.Outcome
)

// NewHive attaches a Hive instance to a machine built with
// HiveMachineConfig.
func NewHive(m *Machine, cfg HiveConfig) *Hive { return hive.New(m, cfg) }

// DefaultHiveConfig returns an experiment-calibrated Hive configuration.
func DefaultHiveConfig(cells int) HiveConfig { return hive.DefaultConfig(cells) }

// HiveMachineConfig builds the machine configuration a Hive system needs:
// failure units matching the cells and the firewall enabled.
func HiveMachineConfig(cells, nodesPerCell int, memBytes, l2Bytes uint64, seed int64) MachineConfig {
	return hive.MachineConfig(cells, nodesPerCell, memBytes, l2Bytes, seed)
}

// NewParallelMake prepares the parallel-make workload on h.
func NewParallelMake(h *Hive, cfg MakeConfig) *Make { return hive.NewMake(h, cfg) }

// DefaultMakeConfig returns the standard workload sizes.
func DefaultMakeConfig() MakeConfig { return hive.DefaultMakeConfig() }

// Parallel campaign infrastructure. RunCampaign fans a campaign's fully
// independent runs out over a bounded worker pool (CampaignConfig.Workers;
// 0 = one worker per CPU) with bit-identical results for any worker
// count: each run owns its whole simulated machine and derives its seed
// purely from (base seed, stream, run index).
type (
	// CampaignStats aggregates a campaign's host-side accounting: wall
	// and CPU time, simulated-event totals and events/sec throughput.
	CampaignStats = runner.Stats
)

// DeriveSeed is the campaign seed-derivation mixer: a SplitMix64-style
// avalanche over (base, stream, i) that gives every run of every
// experiment family a decorrelated engine seed.
func DeriveSeed(base int64, stream, i int) int64 { return runner.DeriveSeed(base, stream, i) }

// ParallelMap runs fn(0..n-1) on up to `workers` goroutines (0 = one per
// CPU) and returns the results in index order — the worker pool under
// RunCampaign without its seeds, panic isolation or accounting.
func ParallelMap[T any](n, workers int, fn func(i int) T) []T {
	return runner.Map(n, workers, fn)
}

// Experiment drivers (§5 and the §4/§6 ablations).
type (
	// ValidationConfig shapes a §5.2 validation run.
	ValidationConfig = experiments.ValidationConfig
	// ValidationResult is one Table 5.3 run.
	ValidationResult = experiments.ValidationResult
	// ScalingConfig shapes a recovery-time measurement.
	ScalingConfig = experiments.ScalingConfig
	// ScalingPoint is one measured configuration.
	ScalingPoint = experiments.ScalingPoint
	// EndToEndConfig shapes a Hive end-to-end run.
	EndToEndConfig = experiments.EndToEndConfig
	// EndToEndResult is one Table 5.4 run.
	EndToEndResult = experiments.EndToEndResult
	// Fig57Point is one suspension-time measurement.
	Fig57Point = experiments.Fig57Point
	// WarmState is a warmed-up validation machine frozen into a forkable
	// snapshot (see WarmupValidation / ValidationFromWarm in
	// internal/experiments).
	WarmState = experiments.WarmState
	// PartitionConfig shapes the partitioned-simulation scenario, the
	// fault-free 1024-node fill.
	PartitionConfig = experiments.PartitionConfig
	// PartitionResult is one partitioned fill run.
	PartitionResult = experiments.PartitionResult
	// TailConfig shapes a containment-time tail campaign over the
	// degradation fault classes.
	TailConfig = experiments.TailConfig
	// TailScenario aggregates one fault class's tail campaign: p50/p99/p999
	// containment time plus the affected fraction of the machine.
	TailScenario = experiments.TailScenario
	// TailResult is a full tail campaign.
	TailResult = experiments.TailResult
)

// DefaultTailRuns is the default per-scenario run count of a tail campaign:
// enough observations that the p999 rests on a real one.
const DefaultTailRuns = experiments.DefaultTailRuns

// DefaultValidationConfig returns the standard §5.2 validation setup.
func DefaultValidationConfig() ValidationConfig { return experiments.DefaultValidationConfig() }

// WarmupValidation builds a warmed validation machine (cache fill run to
// quiescence) frozen into a forkable snapshot. Derive warmSeed with
// DeriveSeed(base, StreamWarmup, 0) so all workers rebuild it identically.
func WarmupValidation(cfg ValidationConfig, warmSeed int64) *WarmState {
	return experiments.WarmupValidation(cfg, warmSeed)
}

// ValidationFromWarm performs one validation run by forking ws; the fault
// and post-fork fill burst are drawn from runSeed-private streams.
func ValidationFromWarm(ws *WarmState, ft FaultType, runSeed int64, tr *Tracer) *ValidationResult {
	return experiments.ValidationFromWarm(ws, ft, runSeed, tr)
}

// StreamWarmup is the seed stream of a campaign's warm-snapshot
// construction.
const StreamWarmup = runner.StreamWarmup

// RunValidation performs one §5.2 validation run: run 0 of the one-run
// validation campaign at base seed seed (its warm-up, then a fork at the
// run's derived seed, traced into cfg.Trace), so it equals RunCampaign's run
// 0 and ReplayValidationRun(cfg, ft, seed, 0) exactly.
func RunValidation(cfg ValidationConfig, ft FaultType, seed int64) *ValidationResult {
	return experiments.Validation(cfg, ft, seed)
}

// DefaultTailConfig returns the default tail-campaign setup: the validation
// machine with DefaultTailRuns warm-forked runs per degradation scenario.
func DefaultTailConfig() TailConfig { return experiments.DefaultTailConfig() }

// RunTailCampaign measures the containment-time tail of the degradation
// fault classes (transient-link, fail-slow, CPU-fail/memory-survives):
// cfg.Runs warm-forked validation runs per class reduced to p50/p99/p999
// containment time plus the affected fraction of the machine. Results are
// bit-identical for any worker count (cfg.Workers);
// cfg.Observe receives one batch of run records per class.
func RunTailCampaign(cfg TailConfig, seed int64) *TailResult {
	return experiments.TailCampaign(cfg, seed)
}

// DefaultPartitionConfig returns the 1024-node partitioned scaling scenario.
func DefaultPartitionConfig() PartitionConfig { return experiments.DefaultPartitionConfig() }

// RunPartitionFill runs the fault-free partitioned fill scenario: region
// schedulers execute conservative lookahead windows on cfg.Partitions
// workers, bit-identical at any worker count.
func RunPartitionFill(cfg PartitionConfig, seed int64) *PartitionResult {
	return experiments.PartitionFill(cfg, seed)
}

// DefaultScalingConfig returns the Fig 5.5 measurement setup for n nodes.
func DefaultScalingConfig(nodes int) ScalingConfig { return experiments.DefaultScalingConfig(nodes) }

// MeasureRecovery injects a node failure, aggregates per-phase times and
// judges the recovered machine.
func MeasureRecovery(cfg ScalingConfig) ScalingPoint { return experiments.MeasureRecovery(cfg) }

// DefaultEndToEndConfig returns the §5.1 end-to-end setup.
func DefaultEndToEndConfig() EndToEndConfig { return experiments.DefaultEndToEndConfig() }

// FirewallLatency measures an intercell write-miss latency with the
// firewall on or off (§6.2).
func FirewallLatency(on bool, seed int64) Time { return experiments.FirewallLatency(on, seed) }

// TriggerLatency measures the recovery-triggering latency with or without
// the §4.2 speculative-ping optimization; the point carries the run's
// recovery and judge verdict.
func TriggerLatency(nodes int, speculative bool, seed int64) (Time, ScalingPoint) {
	return experiments.TriggerLatency(nodes, speculative, seed)
}

// RecoveryDistribution summarizes per-phase recovery times across seeds.
type RecoveryDistribution = experiments.Distribution

// Head-to-head routing campaigns: the same faulted runs replayed under
// every registered interconnect-recovery routing strategy (see
// internal/routing), comparing recovery time, its P3 share, packets lost,
// post-recovery throughput, and deadlock freedom of the installed tables.
type (
	// RoutingConfig shapes a head-to-head routing campaign.
	RoutingConfig = experiments.RoutingConfig
	// RoutingScenarioSpec is one fault shape a routing campaign replays.
	RoutingScenarioSpec = experiments.RoutingScenarioSpec
	// RoutingScenario is one fault shape's head-to-head comparison.
	RoutingScenario = experiments.RoutingScenario
	// RoutingCell aggregates one (scenario, strategy) batch.
	RoutingCell = experiments.RoutingCell
	// RoutingResult is a full head-to-head routing campaign.
	RoutingResult = experiments.RoutingResult
)

// RoutingStrategies lists the registered recovery-routing strategies
// ("adaptive", "incremental", "paper"); pass one to
// MachineConfig.Routing, ValidationConfig.Routing, or the CLIs' -routing.
func RoutingStrategies() []string { return routing.Names() }

// DefaultRoutingConfig returns the default head-to-head setup: the
// validation machine, every registered strategy, the default single-link /
// router / multi-link scenarios.
func DefaultRoutingConfig() RoutingConfig { return experiments.DefaultRoutingConfig() }

// RunRoutingCampaign runs the head-to-head routing comparison: for each
// scenario, every strategy replays the identical warm-forked faulted runs
// (the seed stream never involves the strategy), so per-cell differences
// are pure strategy effects. Bit-identical for any worker count;
// cfg.Observe receives one batch of run records per (scenario, strategy),
// run i of every strategy carrying the same seed.
func RunRoutingCampaign(cfg RoutingConfig, seed int64) *RoutingResult {
	return experiments.RoutingCampaign(cfg, seed)
}
