package experiments

import (
	"fmt"

	"flashfc/internal/fault"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
)

// Exemplar replay: a tail campaign records which run supports each reported
// percentile (TailScenario.Exemplars); ReplayTailExemplars re-executes
// exactly those runs with span tracing on. Campaign runs are a pure
// function of their derived seed — the fork-vs-fresh and cross-worker
// determinism contracts — so the traced replay IS the campaign run, not a
// reconstruction: its containment time must equal the recorded observation
// bit-for-bit, and the replay's trace explains the original outlier. The
// experiments suite enforces the equality; drivers treat a mismatch as a
// broken determinism contract.

// ExemplarReplay is one percentile exemplar re-run with tracing.
type ExemplarReplay struct {
	Fault fault.Type
	Pct   float64 // the percentile the run supports (50, 99, 99.9)
	Run   int     // run index within the campaign's per-fault batch
	Seed  int64   // the run's derived seed (replayed here)
	// CampaignTime is the containment time the campaign recorded for this
	// run; TracedTime is what the traced replay measured. Equal by the
	// determinism contract.
	CampaignTime sim.Time
	TracedTime   sim.Time
	// Result is the replayed run's full outcome.
	Result *ValidationResult
	// Trace holds the replay's span/point timeline.
	Trace *trace.Tracer
}

// Match reports whether the replay reproduced the campaign's observation
// exactly.
func (e ExemplarReplay) Match() bool { return e.TracedTime == e.CampaignTime }

// campaignWarmState rebuilds the warm state the campaign (cfg, seed) forks
// its runs from by calling the campaign's own Warmup; it is fault- and
// stream-independent, so one state serves every batch of a tail campaign.
func campaignWarmState(cfg ValidationConfig, seed int64) *WarmState {
	return ValidationCampaign{Config: cfg}.Warmup(CampaignConfig{Seed: seed}).(*WarmState)
}

// replay re-executes campaign run i — fork ws, run the fault script at the
// run's derived seed — traced into tr (nil: untraced). CampaignTime starts
// out as the traced time; ReplayTailExemplars overwrites it with the
// recorded one.
func replay(ws *WarmState, ft fault.Type, i int, runSeed int64, tr *trace.Tracer) ExemplarReplay {
	r := ValidationFromWarm(ws, ft, runSeed, tr)
	return ExemplarReplay{
		Fault: ft, Run: i, Seed: runSeed,
		CampaignTime: r.Phases.Total, TracedTime: r.Phases.Total,
		Result: r, Trace: tr,
	}
}

// ReplayTailExemplars replays every exemplar of a finished tail campaign
// with tracing enabled, one replay per exemplar in scenario and percentile
// order. cfg and seed must be the ones the campaign ran under: the replay
// rebuilds the campaign's warm snapshot (one warm-up, shared across all
// exemplars) and forks each exemplar's recorded seed from it, the identical
// computation the campaign performed, plus a tracer. A run that supports
// several percentiles is executed once; its replays share Result and Trace.
func ReplayTailExemplars(cfg TailConfig, seed int64, res *TailResult) []ExemplarReplay {
	var out []ExemplarReplay
	var ws *WarmState
	for _, sc := range res.Scenarios {
		byRun := map[int]ExemplarReplay{}
		for _, ex := range sc.Exemplars {
			e, ok := byRun[ex.Run]
			if !ok {
				if ws == nil {
					ws = campaignWarmState(cfg.ValidationConfig, seed)
				}
				e = replay(ws, sc.Fault, ex.Run, ex.Seed, trace.New())
				byRun[ex.Run] = e
			}
			e.Pct = ex.Pct
			e.CampaignTime = ex.Time
			out = append(out, e)
		}
	}
	return out
}

// ReplayTailRun replays one arbitrary run of a tail campaign (not
// necessarily an exemplar) with tracing.
func ReplayTailRun(cfg TailConfig, ft fault.Type, seed int64, i int) ExemplarReplay {
	return replay(campaignWarmState(cfg.ValidationConfig, seed), ft, i,
		runner.DeriveSeed(seed, cfg.experiment(ft).Stream(), i), trace.New())
}

// ReplayValidationRun replays run i of a validation campaign (Table 5.3 /
// flashsim -runs N batches, StreamValidation seeds) traced into cfg.Trace
// (nil: untraced) — the path of every flashsim validation run: the same
// warm fork the campaign executed, so the replay is campaign run i, not a
// lookalike. Validation is its run 0.
func ReplayValidationRun(cfg ValidationConfig, ft fault.Type, seed int64, i int) ExemplarReplay {
	exp := ValidationCampaign{Config: cfg, Fault: ft}
	return replay(campaignWarmState(cfg, seed), ft, i, runner.DeriveSeed(seed, exp.Stream(), i), cfg.Trace)
}

// String renders the one-line replay summary the drivers print.
func (e ExemplarReplay) String() string {
	verdict := "match"
	if !e.Match() {
		verdict = fmt.Sprintf("MISMATCH (campaign %v)", e.CampaignTime)
	}
	return fmt.Sprintf("p%g exemplar: %v run %d seed %d, containment %v, %s",
		e.Pct, e.Fault, e.Run, e.Seed, e.TracedTime, verdict)
}
