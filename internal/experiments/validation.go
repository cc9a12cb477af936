// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation section (§5), plus the ablation
// measurements discussed in §4 and §6: Table 5.3 (validation runs),
// Table 5.4 (end-to-end Hive runs), Fig 5.5 (hardware recovery scaling),
// Fig 5.6 (coherence-recovery component scaling), Fig 5.7 (end-to-end
// suspension times), the §6.2 firewall cost, the §4.2 speculative-ping
// trigger speedup, and the §4.3 BFT-hint scheduling benefit.
package experiments

import (
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
)

// ValidationResult is one Table 5.3 run, and the record every faulted run
// script fills (Script.Record).
type ValidationResult struct {
	Fault     fault.Fault
	Recovered bool
	// Judge is machine.Judge's verdict, taken between recovery and the
	// sweep; empty on a passing run.
	Judge  machine.Judgement
	Verify *machine.VerifyResult
	Phases machine.PhaseTimes
	Note   string
	// Events is the number of simulated events the run's engine fired;
	// campaigns aggregate it into events/sec throughput.
	Events uint64
	// AffectedNodes is how many nodes the fault cost the machine: the
	// nodes that did not emerge from recovery as healthy participants
	// (dead, isolated, or shut down with their failure unit). The tail
	// campaign reports it as a fraction of the machine.
	AffectedNodes int
	// Metrics is the run's machine-wide metric snapshot (always set, even
	// when recovery fails); campaigns merge and summarize them.
	Metrics *metrics.Snapshot
	// lost counts the packets the fabric destroyed from the injection to
	// the end of recovery, from the drop count dropBase taken at the
	// injection; swept is the verify sweep's simulated duration.
	dropBase, lost uint64
	swept          sim.Time
}

// OK reports whether the run counts as passed: recovery completed, the
// judge found nothing, and the whole-memory sweep found data either intact
// or justifiably incoherent — and, for false alarms, no data loss at all
// (§4.1).
func (r *ValidationResult) OK() bool {
	if !r.Recovered || !r.Judge.OK() || r.Verify == nil || !r.Verify.OK() {
		return false
	}
	switch r.Fault.Type {
	case fault.FalseAlarm, fault.FailSlow:
		// Nothing died and no link dropped traffic: recovery must not
		// have cost a single line. (A fail-slow engine still fields every
		// data-carrying message — slowly — so losses would be a bug.)
		if r.Verify.Incoherent != 0 {
			return false
		}
	}
	return true
}

// SimEvents, RunMetrics and FillRecord implement RunReport.
func (r *ValidationResult) SimEvents() uint64             { return r.Events }
func (r *ValidationResult) RunMetrics() *metrics.Snapshot { return r.Metrics }
func (r *ValidationResult) FillRecord(rec *obs.RunRecord) {
	rec.Fault = r.Fault.String()
	rec.ContainmentNS = int64(r.Phases.Total)
	rec.AffectedNodes = r.AffectedNodes
	if !r.OK() {
		rec.Outcome, rec.Note = obs.OutcomeFail, r.Note
	}
}

// ValidationConfig shapes one validation run. Workers and Observe are the
// envelope of the campaigns that carry this config instead of a
// CampaignConfig (TailCampaign, RoutingCampaign — see envelope);
// RunCampaign takes its own from the CampaignConfig, single runs ignore them.
type ValidationConfig struct {
	Nodes     int
	MemBytes  uint64
	L2Bytes   uint64
	FillLines int // lines each node touches before the fault
	Deadline  sim.Time
	Stride    int // verification stride (1 = full sweep)
	// Workers bounds the campaign's goroutines; 0 means one per CPU. Any
	// worker count yields bit-identical results.
	Workers int
	// Routing names the interconnect-recovery routing strategy the runs
	// use ("" or "paper" is the paper's policy on the byte-identical
	// pre-strategy path; see internal/routing).
	Routing string
	// BurstLines sizes the post-fork fill burst of every run; 0
	// defaults to a quarter of the warm fill (minimum 8).
	BurstLines int
	// Trace, when non-nil, collects the run's event timeline. It applies
	// to single runs only (Validation, ReplayValidationRun): the tracer
	// itself is safe to share across goroutines, but interleaving many
	// runs' simulated timelines into one trace produces nonsense.
	Trace *trace.Tracer
	// Observe, when non-nil, receives one obs.Batch announcement plus a
	// per-run obs.RunRecord from every batch of the campaign. Records
	// arrive in completion order; the campaign never calls Finish — the
	// owner of the sink does, after its last batch.
	Observe obs.Sink
	// runHook, when non-nil, runs at the start of every campaign run with
	// the run index. Test-only: it lets the suite crash a chosen run and
	// assert that the runner's panic isolation turns it into a failed
	// row instead of aborting the campaign.
	runHook func(i int)
}

// DefaultValidationConfig returns a fast-but-faithful §5.2 setup: the
// Table 5.1 8-node machine with reduced fill and memory so that a batch of
// 1000 runs is tractable.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Nodes:     8,
		MemBytes:  256 << 10,
		L2Bytes:   64 << 10,
		FillLines: 192,
		Deadline:  5 * sim.Second,
		Stride:    1,
	}
}

// Validation performs one §5.2 validation run: fill the caches with random
// lines (shared/exclusive at random), inject the fault once half the fill
// has committed (so transactions are in flight), run recovery, then read
// back the entire memory and compare against the oracle. It is run 0 of the
// one-run validation campaign at base seed seed — the campaign's warm-up,
// then ValidationFromWarm at the run's derived seed, traced into cfg.Trace
// — so a single run, RunCampaign's run 0 and ReplayValidationRun(…, 0) are
// one computation.
func Validation(cfg ValidationConfig, ft fault.Type, seed int64) *ValidationResult {
	return ReplayValidationRun(cfg, ft, seed, 0).Result
}

// CompoundFault runs a §4.1 compound fault on cfg's machine, seeded by seed
// and traced into cfg.Trace, and returns the faults and the run's record: a
// power loss of nodes n/2 and n/2+1 (at least three nodes), or else a cut
// of every link between the first two mesh columns. They land at 1 ms,
// with no fill; 10 µs later node 0 reads the middle node's memory and node
// 1 reads node 0's.
func CompoundFault(cfg ValidationConfig, powerLoss bool, seed int64) ([]fault.Fault, *ValidationResult) {
	s := compoundScript(cfg, powerLoss, seed)
	return s.Timed[0].Faults, s.Run()
}

// compoundScript is CompoundFault's run: the faults and the reads are two
// timed steps, the sweep follows the judge at cfg.Stride.
func compoundScript(cfg ValidationConfig, powerLoss bool, seed int64) Script {
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Routing = cfg.Routing
	mc.Trace = cfg.Trace
	m := machine.New(mc)
	fs := fault.CableCut(m.Topo, 0)
	if powerLoss {
		fs = fault.PowerLoss(m.Topo, []int{cfg.Nodes / 2, cfg.Nodes/2 + 1})
	}
	return Script{M: m, Budget: 10 * sim.Second, Stride: max(cfg.Stride, 1), Record: &ValidationResult{Fault: fs[0]},
		Timed: []Step{{At: sim.Millisecond, Faults: fs}, {At: sim.Millisecond + 10*sim.Microsecond, Touches: []Touch{{0, cfg.Nodes / 2}, {1, 0}}}}}
}

// ValidationCampaign repeats §5.2 validation runs of one fault type
// (Table 5.3's per-type batches). Each run forks the campaign's warm
// snapshot, runs a fill burst, injects the fault mid-burst, recovers, and
// verifies all of memory against the oracle.
type ValidationCampaign struct {
	// Config shapes the runs; use DefaultValidationConfig() as the base.
	Config ValidationConfig
	Fault  fault.Type
	// stream and label re-key the batch when set: the tail campaign is
	// this experiment on runner.StreamTail under the label "tail", so its
	// runs never correlate with a Table 5.3 batch at the same base seed.
	stream int
	label  string
}

func (c ValidationCampaign) Stream() int {
	if c.stream != 0 {
		return c.stream + int(c.Fault)
	}
	return runner.StreamValidation + int(c.Fault)
}
func (c ValidationCampaign) Points() int { return 0 }

// Warmup is the campaign's one cache-fill warm-up per worker, keyed on the
// campaign seed via StreamWarmup, frozen into a forkable snapshot.
func (c ValidationCampaign) Warmup(cfg CampaignConfig) any {
	vcfg := c.Config
	vcfg.Trace = nil
	return WarmupValidation(vcfg, runner.DeriveSeed(cfg.Seed, runner.StreamWarmup, 0))
}

// Run forks the worker's warm snapshot (env.Warm, from Warmup) and runs the
// fault/recovery/verify sequence with the run's derived seed.
func (c ValidationCampaign) Run(env RunEnv, i int, seed int64) *ValidationResult {
	if c.Config.runHook != nil {
		c.Config.runHook(i)
	}
	return ValidationFromWarm(env.Warm.(*WarmState), c.Fault, seed, nil)
}

// Batch implements Batcher.
func (c ValidationCampaign) Batch() obs.Batch {
	label := "validation"
	if c.label != "" {
		label = c.label
	}
	return obs.Batch{Label: label, Fault: c.Fault.String()}
}
