package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/routing"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/stats"
	"flashfc/internal/topology"
)

// Head-to-head routing campaigns: the same faulted runs replayed under every
// registered recovery-routing strategy. Each scenario draws its faults from
// the run seed alone — never from the strategy — so strategy s and strategy
// s' recover from byte-identical machines facing byte-identical faults, and
// the per-run differences are pure strategy effects. Four outcomes are
// compared: recovery time (and its P3 share, where the strategies actually
// differ), packets the fabric lost, post-recovery throughput (the verify
// sweep's line rate), and deadlock freedom of the tables each strategy left
// installed.

// RoutingScenarioSpec is one fault shape a routing campaign replays.
type RoutingScenarioSpec struct {
	Name string
	// Links is how many distinct random links fail simultaneously.
	Links int
	// Router adds one random router failure.
	Router bool
}

// DefaultRoutingScenarios are the standard shapes: one dead link, one dead
// router, and a simultaneous multi-link failure.
func DefaultRoutingScenarios() []RoutingScenarioSpec {
	return []RoutingScenarioSpec{
		{Name: "single-link", Links: 1},
		{Name: "router", Router: true},
		{Name: "multi-link", Links: 2},
	}
}

// DefaultRoutingRuns is the default per-scenario, per-strategy run count.
const DefaultRoutingRuns = 100

// RoutingConfig shapes a head-to-head routing campaign.
type RoutingConfig struct {
	ValidationConfig
	// Runs is the number of warm-forked runs per scenario per strategy;
	// 0 defaults to DefaultRoutingRuns.
	Runs int
	// Strategies names the competitors; nil runs every registered one.
	Strategies []string
	// Scenarios selects the fault shapes; nil runs DefaultRoutingScenarios.
	Scenarios []RoutingScenarioSpec
}

// DefaultRoutingConfig returns the default head-to-head setup: the
// validation machine, all registered strategies, the default scenarios.
func DefaultRoutingConfig() RoutingConfig {
	return RoutingConfig{ValidationConfig: DefaultValidationConfig(), Runs: DefaultRoutingRuns}
}

// RoutingRun is one strategy's replay of one campaign run.
type RoutingRun struct {
	Strategy  string
	Faults    []fault.Fault
	Recovered bool
	// OK is the validation verdict: recovered, and neither the judge nor
	// the whole-memory sweep found anything unjustified.
	OK bool
	// Judge is machine.Judge's verdict on the recovered machine; empty on
	// a passing run.
	Judge machine.Judgement
	// Acyclic is the deadlock-freedom verdict on the tables the strategy
	// left installed: their channel-dependency graph on the surviving
	// topology must have no cycle.
	Acyclic bool
	// Total is the containment time; P3 is its interconnect-recovery share,
	// where the drain discipline and repair cost actually differ.
	Total, P3 sim.Time
	// Lost counts the packets the fabric destroyed from injection to the
	// end of recovery (drops of every kind).
	Lost uint64
	// Throughput is the post-recovery verify sweep's rate in lines per
	// simulated millisecond — the surviving machine's usable bandwidth
	// under the repaired tables.
	Throughput float64
	Events     uint64
}

// SimEvents, RunMetrics and FillRecord implement RunReport. A run that left
// cyclic tables installed is a failing record (its cell counts it under
// Deadlocks rather than Failed).
func (r *RoutingRun) SimEvents() uint64             { return r.Events }
func (r *RoutingRun) RunMetrics() *metrics.Snapshot { return nil }
func (r *RoutingRun) FillRecord(rec *obs.RunRecord) {
	names := make([]string, len(r.Faults))
	for i, f := range r.Faults {
		names[i] = f.String()
	}
	rec.Fault = strings.Join(names, "+")
	rec.ContainmentNS = int64(r.Total)
	switch {
	case !r.Recovered:
		rec.Outcome, rec.Note = obs.OutcomeFail, "recovery incomplete"
	case !r.Judge.OK():
		rec.Outcome, rec.Note = obs.OutcomeFail, r.Judge.String()
	case !r.OK:
		rec.Outcome, rec.Note = obs.OutcomeFail, "verification failed"
	case !r.Acyclic:
		rec.Outcome, rec.Note = obs.OutcomeFail, "installed routing tables have a dependency cycle"
	}
}

// RoutingCell aggregates one (scenario, strategy) batch.
type RoutingCell struct {
	Strategy string
	Runs     int
	// Failed counts runs that crashed, did not recover, or failed
	// verification. Deadlocks counts runs whose installed tables had a
	// dependency cycle — the acceptance gate is zero everywhere.
	Failed    int
	Deadlocks int
	// Recovery-time percentiles and the P3 share over the passing runs.
	RecoveryP50, RecoveryP99 sim.Time
	P3P50                    sim.Time
	// LostMean is the mean packets lost per run; ThroughputP50 the median
	// post-recovery verify rate (lines per simulated millisecond).
	LostMean      float64
	ThroughputP50 float64
}

// RoutingScenario is one fault shape's head-to-head comparison.
type RoutingScenario struct {
	Spec  RoutingScenarioSpec
	Cells []RoutingCell
}

// RoutingResult is a full head-to-head routing campaign.
type RoutingResult struct {
	Scenarios []RoutingScenario
	Stats     runner.Stats
}

// RoutingCampaign runs the head-to-head comparison: for every scenario and
// every strategy, cfg.Runs warm-forked runs seeded from
// runner.StreamRouting+scenario — the seed never involves the strategy, so
// each strategy replays the identical fault sequence and the cells of one
// scenario are directly comparable. Results are bit-identical for any
// worker count.
func RoutingCampaign(cfg RoutingConfig, seed int64) *RoutingResult {
	runs := cfg.Runs
	if runs <= 0 {
		runs = DefaultRoutingRuns
	}
	strategies := cfg.Strategies
	if strategies == nil {
		strategies = routing.Names()
	}
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = DefaultRoutingScenarios()
	}
	out := &RoutingResult{}
	for si, spec := range scenarios {
		sc := RoutingScenario{Spec: spec}
		for _, strat := range strategies {
			batch := RunCampaign(cfg.envelope(seed, runs),
				routingExperiment{cfg: cfg.ValidationConfig, strat: strat, spec: spec, scenario: si})
			sc.Cells = append(sc.Cells, reduceRoutingCell(strat, batch.Runs))
			out.Stats.Merge(batch.Stats)
		}
		out.Scenarios = append(out.Scenarios, sc)
	}
	return out
}

// reduceRoutingCell folds one batch into its aggregate row.
func reduceRoutingCell(strat string, results []runner.Result[*RoutingRun]) RoutingCell {
	cell := RoutingCell{Strategy: strat, Runs: len(results)}
	var times, p3s, tputs []float64
	var lost float64
	passing := 0
	for _, r := range results {
		if r.Err != nil || !r.Value.Recovered || !r.Value.OK {
			cell.Failed++
			continue
		}
		if !r.Value.Acyclic {
			cell.Deadlocks++
		}
		passing++
		times = append(times, float64(r.Value.Total))
		p3s = append(p3s, float64(r.Value.P3))
		tputs = append(tputs, r.Value.Throughput)
		lost += float64(r.Value.Lost)
	}
	if passing > 0 {
		sort.Float64s(times)
		sort.Float64s(p3s)
		sort.Float64s(tputs)
		cell.RecoveryP50 = sim.Time(stats.Percentile(times, 50))
		cell.RecoveryP99 = sim.Time(stats.Percentile(times, 99))
		cell.P3P50 = sim.Time(stats.Percentile(p3s, 50))
		cell.ThroughputP50 = stats.Percentile(tputs, 50)
		cell.LostMean = lost / float64(passing)
	}
	return cell
}

// routingExperiment is one (scenario, strategy) batch of a head-to-head
// campaign. Its stream is runner.StreamRouting + scenario — the strategy is
// deliberately absent, so every strategy replays the same run seeds — and
// its warm state is the validation campaign's own, forked under strat.
type routingExperiment struct {
	cfg      ValidationConfig
	strat    string
	spec     RoutingScenarioSpec
	scenario int
}

func (e routingExperiment) Stream() int { return runner.StreamRouting + e.scenario }
func (e routingExperiment) Points() int { return 0 }

func (e routingExperiment) Warmup(cfg CampaignConfig) any {
	return ValidationCampaign{Config: e.cfg}.Warmup(cfg)
}
func (e routingExperiment) Run(env RunEnv, i int, seed int64) *RoutingRun {
	if e.cfg.runHook != nil {
		e.cfg.runHook(i)
	}
	return RoutingFromWarm(env.Warm.(*WarmState), e.strat, e.spec, seed)
}
func (e routingExperiment) Batch() obs.Batch {
	return obs.Batch{Label: "routing/" + e.spec.Name + "/" + e.strat}
}

// routingFaults draws one run's fault set: spec.Links distinct random links
// and/or one random router, identical for every strategy at the same run
// seed.
func routingFaults(rng *rand.Rand, spec RoutingScenarioSpec, topo *topology.Topology) []fault.Fault {
	var out []fault.Fault
	if spec.Router {
		out = append(out, fault.Random(rng, fault.RouterFailure, topo, 1))
	}
	picked := map[int]bool{}
	for len(picked) < spec.Links {
		l := rng.Intn(len(topo.Links()))
		if picked[l] {
			continue
		}
		picked[l] = true
		out = append(out, fault.Fault{Type: fault.LinkFailure, Link: l})
	}
	// Map iteration order is random; re-sort the link faults into a
	// deterministic sequence (router fault first, links by id).
	sort.Slice(out, func(a, b int) bool {
		if out[a].Type != out[b].Type {
			return out[a].Type == fault.RouterFailure
		}
		return out[a].Link < out[b].Link
	})
	return out
}

// RoutingFromWarm performs one head-to-head run: fork ws under the named
// strategy (router tables are rebuilt at construction, so the fork is
// bit-identical to any sibling until the first fault), run a runSeed-private
// fill burst, inject the scenario's faults — drawn from runSeed alone —
// once half the burst has committed, recover and judge, then measure what
// the strategy left behind: containment time, P3 share, packets lost,
// deadlock freedom of the installed tables, and the verify sweep's
// post-recovery line rate.
func RoutingFromWarm(ws *WarmState, strat string, spec RoutingScenarioSpec, runSeed int64) *RoutingRun {
	return routingRun(strat, routingScript(ws, strat, spec, runSeed))
}

// routingScript is RoutingFromWarm's run as a script value.
func routingScript(ws *WarmState, strat string, spec RoutingScenarioSpec, runSeed int64) Script {
	m := machine.FromSnapshotRouting(ws.Snap, nil, strat)
	faults := routingFaults(rand.New(rand.NewSource(runSeed)), spec, m.Topo)
	return forkScript(ws, m, runSeed, faults, &ValidationResult{Fault: faults[0]})
}

// routingRun runs s and reads its record as strategy strat's outcome.
func routingRun(strat string, s Script) *RoutingRun {
	rec := s.Run()
	res := &RoutingRun{Strategy: strat, Faults: s.MidFill, Recovered: rec.Recovered, Events: rec.Events}
	if !res.Recovered {
		return res
	}
	res.Total = rec.Phases.Total
	res.P3 = rec.Phases.P123 - rec.Phases.P12
	res.Acyclic = s.M.RoutingAcyclic()
	res.Lost = rec.lost
	res.OK = rec.Judge.OK() && rec.Verify.OK()
	res.Judge = rec.Judge
	if v := rec.Verify; rec.swept > 0 && v.LinesChecked > 0 {
		res.Throughput = float64(v.LinesChecked) / (float64(rec.swept) / float64(sim.Millisecond))
	}
	return res
}

// String renders one scenario's head-to-head comparison.
func (sc RoutingScenario) String() string {
	out := sc.Spec.Name + ":"
	for _, c := range sc.Cells {
		out += fmt.Sprintf(" %s[p50=%v p99=%v lost=%.1f dl=%d]",
			c.Strategy, c.RecoveryP50, c.RecoveryP99, c.LostMean, c.Deadlocks)
	}
	return out
}
