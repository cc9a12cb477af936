package experiments

import (
	"reflect"
	"slices"
	"testing"

	"flashfc/internal/core"
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// flushDoneScript is a node failure landing half way through the fill of a
// 16-node mesh, detected by node 0, with second landing at second.At.
func flushDoneScript(second []Step) Script {
	mc := machine.DefaultConfig(16)
	mc.Seed = 3
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	m := machine.New(mc)
	f := fault.Fault{Type: fault.NodeFailure, Node: 5}
	filler := workload.NewFiller(m)
	filler.FillLines = 48
	return Script{M: m, Fill: filler, MidFill: []fault.Fault{f}, Timed: second,
		Kick: []Touch{{0, 5}}, Budget: 5 * sim.Second, Stride: 1, Record: &ValidationResult{Fault: f}}
}

// flushDoneFault is what the second-fault run reports: its record, the
// fan-out packets still unmaterialised when the second fault landed and
// when the first agent left the epoch it flushed in, and the reports.
type flushDoneFault struct {
	Record             *ValidationResult
	AtFault, AtRestart int
	Reports            []core.Report
	Events             uint64
}

// flushDoneFaultRun runs flushDoneScript with an infinite loop on node
// victim landing 1 ns after the first flush-done fan-out left at sent.
func flushDoneFaultRun(t *testing.T, victim int, sent sim.Time) flushDoneFault {
	t.Helper()
	at := sent + 1
	s := flushDoneScript([]Step{{At: at, Faults: []fault.Fault{{Type: fault.InfiniteLoop, Node: victim}}}})
	m := s.M
	out := flushDoneFault{AtFault: -1, AtRestart: -1}
	// Scheduled before Run's step at the same instant, so it fires first.
	m.E.At(at, func() { out.AtFault = m.Net.Unmaterialised() })
	var sample func()
	sample = func() {
		for _, n := range m.Nodes {
			if e := n.Agent.Epoch(); e > 1 && out.AtRestart < 0 {
				out.AtRestart = m.Net.Unmaterialised()
			}
		}
		if out.AtRestart < 0 {
			m.E.After(sim.Microsecond, sample)
		}
	}
	m.E.At(at, sample)
	out.Record = s.Run()
	reps := m.Reports()
	for n := range m.Nodes {
		if r := reps[n]; r != nil {
			out.Reports = append(out.Reports, *r)
		}
	}
	out.Events = m.E.EventsFired()
	return out
}

// A second fault in P4 while the flush-dones are still queued. Node 5
// fails; once recovery has reached P4 and the first agent has sent its
// flush-done fan-out, a participant's controller wedges in an infinite
// loop. Fan-outs to it back up behind the packets it refuses, so cursors
// are still queued when the agents restart at a higher epoch and until that
// epoch's P3 isolates the node, dropping what they hold. Recovery must
// complete, pass the judge, and come out the same with released records
// poisoned.
func TestSecondFaultWhileFlushDonesQueued(t *testing.T) {
	first := flushDoneScript(nil)
	if rec := first.Run(); !rec.OK() {
		t.Fatalf("single fault: %s", rec.Note)
	}
	var sent sim.Time = -1
	var parts []int
	for n, r := range first.M.Reports() {
		if r != nil && !r.Isolated && (sent < 0 || r.FlushEnd < sent) {
			sent = r.FlushEnd
		}
		if r != nil && !r.Isolated {
			parts = append(parts, n)
		}
	}
	// The loop lands on the participant farthest from node 0 in id.
	victim := slices.Max(parts)

	clean := flushDoneFaultRun(t, victim, sent)
	if !clean.Record.OK() {
		t.Fatalf("second fault: recovered=%v %s", clean.Record.Recovered, clean.Record.Note)
	}
	if clean.AtFault <= 0 || clean.AtRestart <= 0 {
		t.Fatalf("fan-out packets in cursors: %d when the loop landed, %d at the restart; want both > 0",
			clean.AtFault, clean.AtRestart)
	}
	restarted := 0
	for _, r := range clean.Reports {
		restarted += r.Restarts
	}
	if restarted == 0 {
		t.Fatal("no agent restarted")
	}
	t.Logf("loop on node %d at %v: %d packets in cursors then, %d at the first restart; %d restarts, %d events",
		victim, sent+1, clean.AtFault, clean.AtRestart, restarted, clean.Events)

	magic.PoisonReleasedForTest(true)
	defer magic.PoisonReleasedForTest(false)
	core.PoisonReleasedForTest(true)
	defer core.PoisonReleasedForTest(false)
	if poisoned := flushDoneFaultRun(t, victim, sent); !reflect.DeepEqual(clean, poisoned) {
		t.Fatalf("differs under poison:\nclean:    %+v\npoisoned: %+v", clean, poisoned)
	}
}
