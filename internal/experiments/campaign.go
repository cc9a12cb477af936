package experiments

import (
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// The one campaign path. Every experiment family — Table 5.3 and 5.4
// batches, the figure sweeps, the distribution runs, the tail and routing
// head-to-head campaigns, and custom experiments written against the
// façade — is an Experiment[T] executed by RunCampaign, the only caller of
// runner.CampaignWithSetup outside internal/runner. CampaignConfig carries
// the execution envelope (seed, run count, parallelism, metrics,
// observability sink) shared by every campaign; a per-family struct carries
// only what that family varies; results describe themselves through the
// optional RunReport interface.

// CampaignConfig is the execution envelope of one campaign: everything
// about how runs execute, nothing about what they simulate.
type CampaignConfig struct {
	// Seed is the campaign's base seed. Experiments with a non-negative
	// Stream derive every run's engine seed as DeriveSeed(Seed, stream, i);
	// sweep experiments with a negative Stream receive Seed directly and
	// derive internally (their run index is a sweep coordinate, not a
	// repetition).
	Seed int64
	// Runs is the number of runs for experiments that repeat (Points() ==
	// 0). Fixed sweeps (Fig 5.5's node counts, …) ignore it.
	Runs int
	// Workers bounds the goroutines the campaign may use; 0 means one per
	// CPU. Any worker count yields bit-identical results.
	Workers int
	// Metrics, when set, merges every non-crashed run's machine-wide
	// metric snapshot (in run order) into CampaignResult.Metrics.
	Metrics bool
	// Observe, when non-nil, receives the campaign's observability stream:
	// one Batch announcement, then one RunRecord per run in completion
	// order (sinks needing index order reorder internally — RunLog does).
	// RunCampaign never calls Finish; the sink's owner does, after its
	// last campaign.
	Observe obs.Sink
}

// RunEnv is the per-run environment RunCampaign hands an Experiment.
type RunEnv struct {
	// Warm is the running worker's warm state: what the experiment's
	// Warmup returned, or nil for an experiment without one. It is shared
	// by every run the worker executes, so a run must treat it as
	// read-only (fork, never mutate).
	Warm any
}

// Experiment is one experiment family producing a T per run. Implementations
// are small config structs (ValidationCampaign, Fig55Campaign, …); custom
// experiments only need these three methods.
//
// An experiment whose runs fork a shared, immutable warm state (a machine
// snapshot) also implements Warmup(cfg CampaignConfig) any. RunCampaign
// calls it once per worker, before that worker's first run, and hands the
// result to every run the worker executes as RunEnv.Warm. Warmup must be
// deterministic in cfg alone — that is what keeps any worker count
// bit-identical.
type Experiment[T any] interface {
	// Stream is the campaign's seed-derivation stream. Non-negative
	// streams give run i the engine seed DeriveSeed(base, Stream(), i);
	// a negative stream passes the base seed through unchanged (sweeps
	// that derive their own per-point seeds).
	Stream() int
	// Points is the fixed number of runs of a sweep, or 0 for experiments
	// that repeat CampaignConfig.Runs times.
	Points() int
	// Run performs run i with the derived seed.
	Run(env RunEnv, i int, seed int64) T
}

// RunReport is the optional interface a run result implements to take part
// in campaign accounting: throughput, merged metrics and the observability
// stream. A result that does not implement it (a custom experiment's bare
// int, say) is a passing run with zero events and no metrics.
type RunReport interface {
	// SimEvents is the number of simulated events the run fired.
	SimEvents() uint64
	// RunMetrics is the run's machine-wide metric snapshot, or nil.
	RunMetrics() *metrics.Snapshot
	// FillRecord writes the run's outcome fields (fault, containment time,
	// affected nodes, a failing outcome and its note) into rec, which
	// arrives as a passing record with the run identity already set.
	FillRecord(rec *obs.RunRecord)
}

// Batcher is the optional interface an experiment implements to name the
// batch it announces to the observability sink (label and fault class; the
// core fills in the run count). Experiments without it announce "campaign".
type Batcher interface {
	Batch() obs.Batch
}

// CampaignResult is everything one campaign produced.
type CampaignResult[T any] struct {
	// Runs holds the per-run results in run order, independent of worker
	// scheduling: the value (the zero T when Err is non-nil), the captured
	// panic if the run crashed, and host-side wall time and event count.
	Runs []runner.Result[T]
	// Stats is the campaign's host-side accounting.
	Stats runner.Stats
	// Metrics is the campaign aggregate of every non-crashed run's metric
	// snapshot, merged in run order; nil unless CampaignConfig.Metrics
	// was set.
	Metrics *metrics.Snapshot
}

// Values returns the runs' values in run order, re-raising the first
// captured panic — the convenience accessor for campaigns whose runs are
// not expected to crash.
func (r CampaignResult[T]) Values() []T {
	out := make([]T, len(r.Runs))
	for i, run := range r.Runs {
		if run.Err != nil {
			panic(run.Err.(*runner.PanicError).Value)
		}
		out[i] = run.Value
	}
	return out
}

// RunCampaign executes exp under cfg: Points() (or cfg.Runs) independent
// runs on up to cfg.Workers goroutines, with per-run seeds derived from
// (cfg.Seed, exp.Stream(), i) and, when exp has a Warmup, its worker's warm
// state. Results are bit-identical for any worker count; a run that panics
// becomes a failed run (and an outcome=panic record) instead of aborting
// the campaign. A panic in Warmup fails the run that triggered it, and the
// worker retries Warmup on its next run.
func RunCampaign[T any](cfg CampaignConfig, exp Experiment[T]) CampaignResult[T] {
	n := exp.Points()
	if n == 0 {
		n = cfg.Runs
	}
	stream := exp.Stream()
	seedFor := func(i int) int64 {
		if stream >= 0 {
			return runner.DeriveSeed(cfg.Seed, stream, i)
		}
		return cfg.Seed
	}
	var setup func() any
	if w, ok := exp.(interface{ Warmup(CampaignConfig) any }); ok {
		setup = func() any { return w.Warmup(cfg) }
	}
	run := func(i int, ws any, rec *runner.Recorder) T {
		v := exp.Run(RunEnv{Warm: ws}, i, seedFor(i))
		if rep, ok := any(v).(RunReport); ok {
			rec.Report(rep.SimEvents())
		}
		return v
	}
	var observe func(i int, r runner.Result[T])
	if cfg.Observe != nil {
		b := obs.Batch{Label: "campaign"}
		if named, ok := exp.(Batcher); ok {
			b = named.Batch()
		}
		b.Runs = n
		cfg.Observe.StartBatch(b)
		observe = func(i int, r runner.Result[T]) {
			cfg.Observe.RunDone(recordOf(i, seedFor(i), r))
		}
	}
	results, stats := runner.CampaignWithSetup(n, cfg.Workers, setup, run, observe)
	out := CampaignResult[T]{Runs: results, Stats: stats}
	if cfg.Metrics {
		var snaps []*metrics.Snapshot
		for _, r := range results {
			if rep, ok := any(r.Value).(RunReport); ok && r.Err == nil {
				snaps = append(snaps, rep.RunMetrics())
			}
		}
		out.Metrics = runner.MergeMetrics(snaps)
	}
	return out
}

// recordOf reduces one campaign run to its observability record: identity
// and host accounting from the runner, the outcome fields from the result
// itself. seed must be the run's derived seed — the value that reproduces
// it.
func recordOf[T any](i int, seed int64, r runner.Result[T]) obs.RunRecord {
	rec := obs.RunRecord{
		Run:     i,
		Seed:    seed,
		Outcome: obs.OutcomePass,
		Events:  r.Events,
		WallNS:  r.Wall.Nanoseconds(),
		Worker:  r.Worker,
	}
	if r.Err != nil {
		rec.Outcome = obs.OutcomePanic
		rec.Note = r.Err.Error()
	} else if rep, ok := any(r.Value).(RunReport); ok {
		rep.FillRecord(&rec)
	}
	return rec
}

// RunRecordOf reduces one validation run to its observability record.
func RunRecordOf(i int, seed int64, r runner.Result[*ValidationResult]) obs.RunRecord {
	return recordOf(i, seed, r)
}

// envelope builds the campaign envelope the batch fields of a validation
// config describe — how the tail and routing campaigns, which carry a
// ValidationConfig instead of a CampaignConfig, reach the one path.
func (cfg ValidationConfig) envelope(seed int64, runs int) CampaignConfig {
	return CampaignConfig{
		Seed:    seed,
		Runs:    runs,
		Workers: cfg.Workers,
		Observe: cfg.Observe,
	}
}
