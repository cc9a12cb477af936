package experiments

import (
	"strings"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
)

// A budget counts from detection, not from t=0: a fault that lands after
// 10 s of idle time still gets its whole 10 s budget, where an absolute
// deadline would have expired before the fault existed.
func TestScriptBudgetCountsFromDetection(t *testing.T) {
	const at = 12 * sim.Second
	f := fault.Fault{Type: fault.NodeFailure, Node: 4}
	s := Script{
		M:      machine.New(machine.DefaultConfig(8)),
		Timed:  []Step{{At: at, Faults: []fault.Fault{f}}, {At: at, Touches: []Touch{{0, 4}}}},
		Budget: 10 * sim.Second, Record: &ValidationResult{Fault: f},
	}
	rec := s.Run()
	if !rec.Recovered || !rec.Judge.OK() {
		t.Fatalf("fault at %v with a %v budget: recovered %v, %s", at, s.Budget, rec.Recovered, rec.Note)
	}
	if rec.Phases.Start < at || s.M.Now() > at+s.Budget {
		t.Fatalf("recovery started at %v and ran to %v, want within [%v, %v]", rec.Phases.Start, s.M.Now(), at, at+s.Budget)
	}
}

// corruptLine makes the recovered machine hold a stale value: the oracle
// records one more committed write of the last line of the lowest-id
// survivor's memory, a line no fill in these scripts touches, and the
// machine never sees it. The judge must name the line whatever the path.
func corruptLine(m *machine.Machine) {
	home := m.Survivors()[0]
	a := m.Space.Base(home) + coherence.Addr(m.Cfg.MemBytes-128)
	m.Oracle.Wrote(a, m.Oracle.NextToken())
}

// Every faulted path runs its script through the judge: with a line
// corrupted after recovery, each fails its run and its failure names the
// judge. Passing runs of the same scripts are the rest of the suite. A
// power loss at 3 nodes leaves node 0 without a majority, so recovery
// shuts it down: that run fails too, naming the missing live node rather
// than the reads a sweep from a shut-down node would leave pending.
func TestEveryPathIsJudged(t *testing.T) {
	cfg := fastValidationConfig()
	ws := WarmupValidation(cfg, runner.DeriveSeed(1, runner.StreamWarmup, 0))
	three := cfg
	three.Nodes = 3
	const judged = "judge:"
	// verdict reads a finished script the way its path does: whether the
	// run passed, and the note its failure carries.
	type verdict func(Script) (ok bool, note string)
	record := func(s Script) (bool, string) { r := s.Run(); return r.OK(), r.Note }
	point := func(s Script) (bool, string) {
		p := scalingPoint(s)
		var rec obs.RunRecord
		p.FillRecord(&rec)
		return p.OK && rec.Outcome != obs.OutcomeFail, rec.Note
	}
	var lastEnter sim.Time
	for _, c := range []struct {
		name   string
		script Script
		read   verdict
		want   string
	}{
		{"validation", validationScript(ws, fault.NodeFailure, 3, nil), record, judged},
		{"routing", routingScript(ws, "paper", RoutingScenarioSpec{Links: 2}, 3), func(s Script) (bool, string) {
			var rec obs.RunRecord
			r := routingRun("paper", s)
			r.FillRecord(&rec)
			return r.OK && rec.Outcome != obs.OutcomeFail, rec.Note
		}, judged},
		{"fig5.5", scalingScript(DefaultScalingConfig(8)), point, judged},
		{"trigger latency", triggerScript(8, true, 1, &lastEnter), point, judged},
		{"single fault", singleFaultScript(1, func(*machine.Config) {}), point, judged},
		{"powerloss", compoundScript(cfg, true, 1), record, judged},
		{"cablecut", compoundScript(cfg, false, 1), record, judged},
		{"powerloss at 3 nodes", compoundScript(three, true, 1), record, "recovery left no live node"},
	} {
		if c.want == judged {
			c.script.afterRecovery = corruptLine
		}
		if ok, note := c.read(c.script); ok || !strings.Contains(note, c.want) {
			t.Errorf("%s: the run passed (%v) or its note does not name %q: %q", c.name, ok, c.want, note)
		}
	}
}
