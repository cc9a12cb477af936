package flashfc

import (
	"io"

	"flashfc/internal/experiments"
	"flashfc/internal/obs"
)

// Campaign observability (internal/obs): per-run record streams, live
// progress reporting, and tail-exemplar trace replay. Attach a Sink via
// CampaignConfig.Observe (or TailConfig.Observe / RoutingConfig.Observe,
// which become it); the campaign announces each batch and emits one
// RunRecord per run in completion order, and the sink's owner calls Finish
// after the last batch.
type (
	// RunRecord is one campaign run reduced to a flat, serializable record:
	// run index, derived seed, fault, outcome, containment time, events,
	// and (optionally) host accounting.
	RunRecord = obs.RunRecord
	// Batch announces one campaign batch to a Sink.
	Batch = obs.Batch
	// Sink consumes a campaign's observability stream.
	Sink = obs.Sink
	// RunLog writes records as JSONL ordered by run index regardless of
	// worker scheduling — byte-identical at any -parallel.
	RunLog = obs.RunLog
	// Progress is a rate-limited live campaign reporter for stderr.
	Progress = obs.Progress
	// TailExemplar names the campaign run supporting one tail percentile.
	TailExemplar = experiments.TailExemplar
	// ExemplarReplay is one tail exemplar re-run with span tracing; its
	// traced containment time equals the campaign's recorded observation
	// exactly (the determinism contract, enforced by Match).
	ExemplarReplay = experiments.ExemplarReplay
)

// Run outcomes.
const (
	OutcomePass  = obs.OutcomePass
	OutcomeFail  = obs.OutcomeFail
	OutcomePanic = obs.OutcomePanic
)

// NewRunLog returns a RunLog writing JSONL to w. host keeps the host-side
// fields (wall time, worker id) instead of zeroing them — real values at
// the price of byte-identity across worker counts.
func NewRunLog(w io.Writer, host bool) *RunLog { return obs.NewRunLog(w, host) }

// NewProgress returns a Progress reporting to w (normally os.Stderr) at
// the default interval.
func NewProgress(w io.Writer) *Progress { return obs.NewProgress(w) }

// MultiSink fans one observability stream out to several sinks (nil sinks
// are skipped).
func MultiSink(sinks ...Sink) Sink { return obs.Multi(sinks...) }

// ReplayTailExemplars replays every percentile exemplar of a finished tail
// campaign with span tracing: the same warm fork and derived seeds the
// campaign used, so each replay reproduces its observation bit-exactly.
func ReplayTailExemplars(cfg TailConfig, seed int64, res *TailResult) []ExemplarReplay {
	return experiments.ReplayTailExemplars(cfg, seed, res)
}

// ReplayValidationRun replays run i of a validation campaign (the batches
// behind flashsim -runs N and Table 5.3) traced into cfg.Trace (nil:
// untraced) — the path of every flashsim validation run: same warm fork,
// same derived seed, so the replay is campaign run i.
func ReplayValidationRun(cfg ValidationConfig, ft FaultType, seed int64, i int) ExemplarReplay {
	return experiments.ReplayValidationRun(cfg, ft, seed, i)
}

// ReplayTailRun replays run i of a tail campaign's per-fault batch with
// tracing (StreamTail seeds).
func ReplayTailRun(cfg TailConfig, ft FaultType, seed int64, i int) ExemplarReplay {
	return experiments.ReplayTailRun(cfg, ft, seed, i)
}

// WriteExemplars renders replayed exemplars into dir: one Perfetto-loadable
// <fault>-run<i>.trace.json per distinct run and one <fault>-p<pct>.json
// summary per replay (run identity, its trace file, campaign-vs-traced
// match, the critical path's dominant step). All files are deterministic.
func WriteExemplars(dir string, es []ExemplarReplay) error {
	return experiments.WriteExemplars(dir, es)
}
