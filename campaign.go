package flashfc

import "flashfc/internal/experiments"

// Campaign API: one typed entry point for every experiment family. The
// path itself lives in internal/experiments (campaign.go there); this file
// re-exports it. CampaignConfig carries the execution envelope shared by
// every campaign, a per-family struct carries only what that family varies,
// and RunCampaign composes the two:
//
//	out := flashfc.RunCampaign(
//	    flashfc.CampaignConfig{Seed: 1, Runs: 200, Metrics: true},
//	    flashfc.ValidationCampaign{Config: flashfc.DefaultValidationConfig(), Fault: flashfc.NodeFailure},
//	)
//	for _, r := range out.Runs { … }
//	fmt.Println(out.Stats)
//
// A custom experiment is any type with Stream/Points/Run. Its results take
// part in throughput accounting, merged metrics and the -run-log stream by
// implementing RunReport; its batches get a name by implementing Batcher;
// its runs share a per-worker warm state by implementing
// Warmup(CampaignConfig) any, whose result each run receives as
// RunEnv.Warm. All three are optional: a bare int result is a passing run
// with zero events.

type (
	// CampaignConfig is the execution envelope of one campaign: seed, run
	// count, workers, metrics, observability sink.
	CampaignConfig = experiments.CampaignConfig
	// RunEnv is the per-run environment RunCampaign hands an Experiment:
	// the worker's warm state, when the experiment has a Warmup.
	RunEnv = experiments.RunEnv
	// RunReport is the optional interface of run results: event count,
	// metric snapshot, outcome fields of the run's record.
	RunReport = experiments.RunReport
	// Batcher is the optional interface of experiments that name the batch
	// they announce to the observability sink.
	Batcher = experiments.Batcher
)

// Experiment is one experiment family producing a T per run: Stream (the
// seed-derivation stream, negative to receive the base seed unchanged),
// Points (the fixed size of a sweep, or 0 to repeat CampaignConfig.Runs
// times) and Run. Implementations are small config structs
// (ValidationCampaign, Fig55Campaign, …); custom experiments only need
// these three methods.
type Experiment[T any] interface{ experiments.Experiment[T] }

// CampaignResult is everything one campaign produced: Runs (per-run value,
// captured panic, wall time and event count, in run order), Stats (host-side
// accounting), Metrics (the merged snapshots, when CampaignConfig.Metrics
// was set) and the Values accessor.
type CampaignResult[T any] struct{ experiments.CampaignResult[T] }

// RunCampaign executes exp under cfg: Points() (or cfg.Runs) independent
// runs on up to cfg.Workers goroutines, with per-run seeds derived from
// (cfg.Seed, exp.Stream(), i). Results are bit-identical for any worker
// count; a run that panics becomes a failed run instead of aborting the
// campaign.
func RunCampaign[T any](cfg CampaignConfig, exp Experiment[T]) CampaignResult[T] {
	return CampaignResult[T]{experiments.RunCampaign[T](cfg, exp)}
}

// Per-family experiment structs; each is documented beside the script it
// runs in internal/experiments.
type (
	// ValidationCampaign is a Table 5.3 batch: §5.2 runs of one fault type.
	ValidationCampaign = experiments.ValidationCampaign
	// EndToEndCampaign is a Table 5.4 batch: Hive runs of one fault type.
	EndToEndCampaign = experiments.EndToEndCampaign
	// Fig55Campaign sweeps machine sizes (recovery time, Fig 5.5).
	Fig55Campaign = experiments.Fig55Campaign
	// Fig56L2Campaign sweeps the L2 size at 4 nodes (Fig 5.6 left).
	Fig56L2Campaign = experiments.Fig56L2Campaign
	// Fig56MemCampaign sweeps the per-node memory at 4 nodes (Fig 5.6 right).
	Fig56MemCampaign = experiments.Fig56MemCampaign
	// Fig57Campaign sweeps machine sizes (user suspension time, Fig 5.7).
	Fig57Campaign = experiments.Fig57Campaign
	// DistributionCampaign repeats node-failure recoveries across seeds and
	// fault placements; summarize with SummarizeRecovery.
	DistributionCampaign = experiments.DistributionCampaign
)

// SummarizeRecovery folds a DistributionCampaign's outcome into per-phase
// recovery-time distributions.
func SummarizeRecovery(nodes int, out CampaignResult[ScalingPoint]) RecoveryDistribution {
	return experiments.SummarizeDistribution(nodes, out.Runs, out.Stats)
}
