package experiments

import (
	"math"
	"sort"

	"flashfc/internal/fault"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/stats"
)

// Tail analysis for the degradation fault models: the fail-stop classes of
// Table 5.3 have recovery times that barely spread (the BFT bound dominates
// everything), but transient links, fail-slow engines, and CPU-fail/
// memory-survives interact with in-flight state, so their containment time
// has a tail worth measuring. A TailCampaign runs 1000+ warm-forked seeds
// per scenario and reports the p50/p99/p999 containment time plus how much
// of the machine each fault cost.

// TailConfig shapes a tail campaign.
type TailConfig struct {
	ValidationConfig
	// Runs is the number of warm-forked runs per scenario; 0 defaults to
	// DefaultTailRuns (enough observations that the p999 is supported by a
	// real observation, see stats.TailReliable).
	Runs int
	// Faults selects the scenarios; nil runs fault.ExtendedTypes().
	Faults []fault.Type
}

// DefaultTailRuns is the default per-scenario run count: with 1000 runs the
// p999 rests on the single largest observation rather than interpolation.
const DefaultTailRuns = 1000

// DefaultTailConfig returns the default tail-campaign setup: the validation
// machine with DefaultTailRuns per scenario.
func DefaultTailConfig() TailConfig {
	return TailConfig{ValidationConfig: DefaultValidationConfig(), Runs: DefaultTailRuns}
}

// TailScenario aggregates one fault class's tail campaign.
type TailScenario struct {
	Fault  fault.Type
	Runs   int
	Failed int // runs that did not pass ValidationResult.OK
	// Containment-time percentiles over the passing runs (Phases.Total:
	// first recovery entry to last node's recovery completion).
	P50, P99, P999 sim.Time
	// TailOK reports whether the p999 is supported by at least one real
	// observation (stats.TailReliable); below that it is interpolation
	// noise and drivers annotate it.
	TailOK bool
	// Affected summarizes the fraction of the machine each run lost
	// (affected nodes / machine size).
	Affected stats.Summary
	// Exemplars identifies the real observations behind the scenario's
	// percentiles: for each of p50/p99/p999, the nearest-rank passing run
	// (the percentiles above interpolate between observations; an exemplar
	// must be a run that actually happened). ReplayTailExemplars re-runs
	// them with tracing from the recorded seeds.
	Exemplars []TailExemplar
}

// TailExemplar names the campaign run supporting one percentile: replaying
// Seed through the warm fork reproduces Time bit-exactly.
type TailExemplar struct {
	Pct  float64  // the percentile this run supports (50, 99, 99.9)
	Run  int      // run index within the scenario's batch
	Seed int64    // the run's derived seed
	Time sim.Time // the run's containment time (Phases.Total)
}

// TailResult is a full tail campaign: one scenario per fault class plus the
// campaign's host-side throughput accounting.
type TailResult struct {
	Scenarios []TailScenario
	Stats     runner.Stats
}

// experiment is the tail campaign's batch for one fault class: the
// validation experiment re-keyed onto runner.StreamTail under the "tail"
// label.
func (cfg TailConfig) experiment(ft fault.Type) ValidationCampaign {
	return ValidationCampaign{Config: cfg.ValidationConfig, Fault: ft, stream: runner.StreamTail, label: "tail"}
}

// TailCampaign runs the tail analysis: for every requested fault class,
// cfg.Runs warm-forked validation runs (seeded from runner.StreamTail, so
// tail campaigns never correlate with Table 5.3 batches at the same base
// seed) are reduced to containment-time percentiles and the affected
// fraction. Results are bit-identical for any worker count, because every
// run forks the same deterministic warm-up.
func TailCampaign(cfg TailConfig, seed int64) *TailResult {
	runs := cfg.Runs
	if runs <= 0 {
		runs = DefaultTailRuns
	}
	faults := cfg.Faults
	if faults == nil {
		faults = fault.ExtendedTypes()
	}
	out := &TailResult{}
	for _, ft := range faults {
		sc := TailScenario{Fault: ft, Runs: runs}
		exp := cfg.experiment(ft)
		batch := RunCampaign(cfg.envelope(seed, runs), exp)
		var times []float64
		var affected []float64
		var passing []tailObs
		for i, r := range batch.Runs {
			if r.Err != nil || !r.Value.OK() {
				sc.Failed++
				continue
			}
			times = append(times, float64(r.Value.Phases.Total))
			passing = append(passing, tailObs{t: r.Value.Phases.Total, run: i})
			affected = append(affected,
				float64(r.Value.AffectedNodes)/float64(cfg.Nodes))
		}
		if len(times) > 0 {
			sort.Float64s(times)
			sc.P50 = sim.Time(stats.Percentile(times, 50))
			sc.P99 = sim.Time(stats.Percentile(times, 99))
			sc.P999 = sim.Time(stats.Percentile(times, 99.9))
			sc.TailOK = stats.TailReliable(len(times), 99.9)
			sc.Exemplars = tailExemplars(passing, func(i int) int64 {
				return runner.DeriveSeed(seed, exp.Stream(), i)
			})
		}
		sc.Affected = stats.Summarize(affected)
		out.Stats.Merge(batch.Stats)
		out.Scenarios = append(out.Scenarios, sc)
	}
	return out
}

// TailPercentiles are the percentiles a tail campaign reports and keeps
// exemplars for.
var TailPercentiles = []float64{50, 99, 99.9}

// tailObs is one passing run's containment time, tagged with its run index.
type tailObs struct {
	t   sim.Time
	run int
}

// tailExemplars picks the real observation behind each reported percentile:
// over the passing runs sorted by (time, run index), the p-th percentile's
// supporting observation is nearest-rank ceil(p/100·n)−1. stats.Percentile
// interpolates between neighbors for the reported number; an exemplar must
// be a run that actually happened, so it uses the rank observation — for
// p999 at n ≥ 1000 the two coincide.
func tailExemplars(passing []tailObs, seedOf func(i int) int64) []TailExemplar {
	sort.Slice(passing, func(a, b int) bool {
		if passing[a].t != passing[b].t {
			return passing[a].t < passing[b].t
		}
		return passing[a].run < passing[b].run
	})
	out := make([]TailExemplar, 0, len(TailPercentiles))
	for _, p := range TailPercentiles {
		r := int(math.Ceil(p/100*float64(len(passing)))) - 1
		if r < 0 {
			r = 0
		}
		o := passing[r]
		out = append(out, TailExemplar{Pct: p, Run: o.run, Seed: seedOf(o.run), Time: o.t})
	}
	return out
}
