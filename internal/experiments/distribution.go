package experiments

import (
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
	"flashfc/internal/stats"
)

// Multi-seed distribution runs: the paper plots single representative
// recovery times; this family quantifies how tight they are across random
// fault placements and workload interleavings.

// Distribution summarizes recovery-time statistics across seeds.
type Distribution struct {
	Nodes  int
	P1     stats.Summary // milliseconds
	P2     stats.Summary
	P3     stats.Summary
	P4     stats.Summary
	Total  stats.Summary
	Failed int // runs that did not complete recovery (or panicked)
	// Stats is the campaign's host-side throughput accounting; it is the
	// only field that depends on wall-clock rather than simulated state.
	Stats runner.Stats
	// Metrics is the campaign aggregate: every non-crashed run's metric
	// snapshot, merged in run order.
	Metrics *metrics.Snapshot
}

// DistributionCampaign repeats node-failure recoveries across derived
// seeds — and, when Config.Victim is -1, across fault placements: the
// victim node is derived from the run's seed, so the distribution covers
// fault placement too and stays bit-identical for any worker count.
// Summarize the outcome with SummarizeDistribution.
type DistributionCampaign struct {
	// Config shapes the runs; use DefaultScalingConfig(n) as the base.
	// Its Seed is superseded by the per-run derived seed.
	Config ScalingConfig
}

func (c DistributionCampaign) Stream() int      { return runner.StreamDistribution }
func (c DistributionCampaign) Points() int      { return 0 }
func (c DistributionCampaign) Batch() obs.Batch { return obs.Batch{Label: "dist"} }
func (c DistributionCampaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	run := c.Config
	if run.runHook != nil {
		run.runHook(i)
	}
	run.Seed = seed
	if run.Victim < 0 && run.Nodes > 1 {
		run.Victim = 1 + int(uint64(seed)%uint64(run.Nodes-1))
	}
	return MeasureRecovery(run)
}

// SummarizeDistribution folds a DistributionCampaign's per-run recovery
// measurements into the per-phase distribution summary. A run that
// panicked, did not complete recovery or failed the judge counts as failed.
func SummarizeDistribution(nodes int, results []runner.Result[ScalingPoint], st runner.Stats) Distribution {
	d := Distribution{Nodes: nodes}
	d.Stats = st

	var p1, p2, p3, p4, total []float64
	snaps := make([]*metrics.Snapshot, 0, len(results))
	for _, r := range results {
		if r.Err == nil {
			snaps = append(snaps, r.Value.Metrics)
		}
		if r.Err != nil || !r.Value.OK {
			d.Failed++
			continue
		}
		ph := r.Value.Phases
		p1 = append(p1, ph.P1.Milliseconds())
		p2 = append(p2, ph.P2Time().Milliseconds())
		p3 = append(p3, (ph.P123 - ph.P12).Milliseconds())
		p4 = append(p4, ph.P4Time().Milliseconds())
		total = append(total, ph.Total.Milliseconds())
	}
	d.P1 = stats.Summarize(p1)
	d.P2 = stats.Summarize(p2)
	d.P3 = stats.Summarize(p3)
	d.P4 = stats.Summarize(p4)
	d.Total = stats.Summarize(total)
	d.Metrics = runner.MergeMetrics(snaps)
	return d
}
