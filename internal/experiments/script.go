package experiments

import (
	"fmt"
	"strings"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// Script is one faulted run as a value. Table 5.3 and tail runs, the
// routing head-to-head, Fig 5.5/5.6 points, the §4.1 compound faults and
// the §4.2/§5.3/§6 ablations each build one and call Run, the one place
// outside internal/machine (and the examples) that drives a faulted
// machine to recovery, judges it and sweeps it: they differ in the value,
// never in a branch, so a check added to Run applies to all of them.
type Script struct {
	M        *machine.Machine // a fresh machine or a warm fork, built by the caller
	Fill     *workload.Filler // started first, when set
	WaitFill bool             // drive the fill to completion (or Budget) before the kick
	// MidFill land together once half the fill has committed, so
	// transactions are in flight; with WaitFill, a wait that ends short of
	// half way lands them when it ends.
	MidFill []fault.Fault
	Timed   []Step  // steps fixed in simulated time
	Kick    []Touch // detection reads, once the fill has started (and been waited out)
	// Budget bounds recovery, counted from detection: the kick, or the
	// last timed step when that comes later.
	Budget sim.Time
	Stride int               // the verify sweep's stride; 0 skips the sweep
	Record *ValidationResult // what Run fills; its Fault names the run
	// afterRecovery runs on the recovered machine before the judge.
	// Test-only: it corrupts a recovered machine to show every path fails.
	afterRecovery func(*machine.Machine)
}

// Step is a single simulated event at At: its faults land together, then
// its touches are submitted.
type Step struct {
	At      sim.Time
	Faults  []fault.Fault
	Touches []Touch
}

// Touch is a detection read of node To's memory by node From; a negative
// From is the lowest-id survivor at submission, since a fault can take
// node 0 out.
type Touch struct{ From, To int }

// Run executes the script and returns its filled Record.
func (s Script) Run() *ValidationResult {
	m := s.M
	start := m.Now()
	for _, st := range s.Timed {
		m.E.At(st.At, func() {
			s.land(st.Faults)
			s.touch(st.Touches)
		})
	}
	landed := len(s.MidFill) == 0
	land := func() {
		if !landed {
			landed = true
			s.land(s.MidFill)
		}
	}
	if s.Fill != nil {
		s.Fill.OnHalfDone = land
		filled := false
		s.Fill.Start(func() { filled = true })
		if s.WaitFill {
			for !filled && m.Now() < start+s.Budget {
				m.Advance(m.Now() + sim.Millisecond)
			}
			land()
		}
	}
	s.touch(s.Kick)
	s.recoverAndJudge()
	return s.Record
}

// land injects fs together; the run's packet losses count from here.
func (s Script) land(fs []fault.Fault) {
	if len(fs) > 0 {
		s.Record.dropBase = s.M.Net.Dropped()
		s.M.InjectAll(fs)
	}
}

// touch submits the detection reads ts.
func (s Script) touch(ts []Touch) {
	for _, t := range ts {
		if live := s.M.Survivors(); t.From < 0 && len(live) > 0 {
			t.From = live[0]
		}
		if t.From >= 0 {
			s.M.Nodes[t.From].CPU.Submit(workload.TouchOp(s.M, t.To))
		}
	}
}

// recoverAndJudge is the script's second half, entered once the faults
// are in or scheduled and the kick submitted: recover within Budget of
// detection, aggregate the phases, count the nodes the fault cost, judge,
// and sweep from the lowest-id node that recovered without shutting down.
// It fills the record and notes whichever step failed; with no such node
// left the sweep cannot run, and the record fails.
func (s Script) recoverAndJudge() {
	m, rec := s.M, s.Record
	defer func() {
		rec.Events = m.E.EventsFired()
		rec.Metrics = m.MetricsSnapshot()
	}()
	from := m.Now()
	for _, st := range s.Timed {
		from = max(from, st.At)
	}
	if rec.Recovered = m.RunUntilRecovered(from + s.Budget); !rec.Recovered {
		rec.Note = fmt.Sprintf("recovery incomplete after %v", s.Budget)
		return
	}
	if s.afterRecovery != nil {
		s.afterRecovery(m)
	}
	rec.Phases = m.Aggregate()
	rec.AffectedNodes = m.Liveness().Affected()
	rec.lost = m.Net.Dropped() - rec.dropBase
	var notes []string
	if rec.Judge = m.Judge(); !rec.Judge.OK() {
		notes = append(notes, rec.Judge.String())
	}
	if s.Stride > 0 {
		if reader := liveReader(m); reader < 0 {
			notes = append(notes, "recovery left no live node")
		} else {
			t0 := m.Now()
			rec.Verify = m.VerifyMemory(reader, s.Stride)
			rec.swept = m.Now() - t0
			if !rec.Verify.OK() {
				notes = append(notes, rec.Verify.String())
			}
		}
	}
	rec.Note = strings.Join(notes, "; ")
}

// liveReader is the lowest-id node that came out of recovery healthy, or
// -1 when recovery shut every survivor down.
func liveReader(m *machine.Machine) int {
	for _, n := range m.Survivors() {
		if m.Liveness().Healthy(n) {
			return n
		}
	}
	return -1
}

// detectionVictim picks the node whose memory a read must touch to notice f.
func detectionVictim(m *machine.Machine, f fault.Fault) int {
	switch f.Type {
	case fault.NodeFailure, fault.InfiniteLoop, fault.FailSlow, fault.CPUFail:
		return f.Node
	case fault.RouterFailure:
		return f.Router
	case fault.LinkFailure, fault.TransientLink:
		return m.Topo.Links()[f.Link].B // the link's far end
	default:
		return m.Cfg.Nodes - 1
	}
}
