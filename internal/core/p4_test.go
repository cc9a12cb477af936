package core

import (
	"testing"

	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
)

// flushDoneRecordsPerAgent and flushDoneRecordsMost bound the distinct
// records an agent's flush-done fan-out takes, on average and at most, in
// TestFlushDoneFanOutRecyclesRecords: measured 20.6 and 30, against 126 for
// a record per destination.
const (
	flushDoneRecordsPerAgent = 24
	flushDoneRecordsMost     = 36
)

// The P4 flush barrier releases the directory sweep once this node's own
// flush is done and every participant's flush-done has been seen — counted,
// not rescanned. These tests drive agent 0 of a 4×2 rig straight into P4
// (no watchdog, engine not run past the point under test).

func flushAgent(t *testing.T) (*rig, *Agent) {
	t.Helper()
	r := newRig(t, 4, 2, func(c *Config) { c.watchdogTimeout = 0 })
	a := r.agents[0]
	a.epoch = 1
	a.report = &Report{}
	a.resetState()
	return r, a
}

// enterP4 fixes the participant list by hand and enters P4.
func enterP4(a *Agent, parts ...int) {
	a.phase = PhaseCoherence
	setParticipants(a, parts...)
}

// deliver hands a flush-done from node `from` stamped with epoch to the
// agent's packet handler.
func deliver(a *Agent, from, epoch int) {
	a.handlePacket(&interconnect.Packet{Src: from, Dst: a.ID, Lane: interconnect.LaneReply,
		Payload: &recMsg{Kind: kFlushDone, From: from, Epoch: epoch}})
}

// ownFlush is the tail of doFlush once the flush charge is paid.
func ownFlush(a *Agent) {
	a.noteFlushDone(a.ID)
	a.checkFlushBarrier()
}

func TestFlushBarrierIgnoresDuplicates(t *testing.T) {
	_, a := flushAgent(t)
	enterP4(a, 0, 1, 2, 3)
	ownFlush(a)
	deliver(a, 1, 1)
	deliver(a, 1, 1)
	deliver(a, 2, 1)
	deliver(a, 2, 1)
	if a.scanned || a.flushCount != 3 {
		t.Fatalf("after duplicates from 1 and 2: scanned=%v count=%d, want false 3", a.scanned, a.flushCount)
	}
	deliver(a, 3, 1)
	if !a.scanned {
		t.Fatal("barrier not released with every participant in")
	}
}

func TestFlushBarrierIgnoresNonParticipants(t *testing.T) {
	_, a := flushAgent(t)
	enterP4(a, 0, 1, 2, 3)
	ownFlush(a)
	deliver(a, 5, 1) // 5 is alive but not in this agent's participant list
	deliver(a, 6, 1)
	deliver(a, 1, 1)
	deliver(a, 2, 1)
	if a.scanned || a.flushCount != 3 {
		t.Fatalf("non-participants counted: scanned=%v count=%d, want false 3", a.scanned, a.flushCount)
	}
	deliver(a, 3, 1)
	if !a.scanned {
		t.Fatal("barrier not released with every participant in")
	}
}

// A flush-done can arrive while this node is still in P2; it is counted
// once finishDissemination fixes the participant list.
func TestFlushBarrierCountsArrivalsBeforeParticipantsFixed(t *testing.T) {
	r, a := flushAgent(t)
	a.phase = PhaseDissemination
	for _, q := range []int{5, 6, 7} {
		deliver(a, q, 1)
	}
	if a.flushCount != 0 {
		t.Fatalf("counted %d flush-dones before any participant list", a.flushCount)
	}
	a.st = allUp(r.topo)
	a.finishDissemination()
	r.e.RunUntil(a.busyUntil) // the participant list is fixed
	if len(a.conv.parts) != 8 || a.flushCount != 3 {
		t.Fatalf("participants=%v count=%d, want all 8 and the 3 early arrivals", a.conv.parts, a.flushCount)
	}
	a.phase = PhaseCoherence
	ownFlush(a)
	for _, q := range []int{1, 2, 3} {
		deliver(a, q, 1)
	}
	if a.scanned {
		t.Fatal("released with participant 4 still out")
	}
	deliver(a, 4, 1)
	if !a.scanned {
		t.Fatal("barrier not released with every participant in")
	}
}

// A restart mid-barrier forgets the old epoch's arrivals, and the old
// epoch's stragglers are dropped at the door.
func TestFlushBarrierResetsOnRestart(t *testing.T) {
	_, a := flushAgent(t)
	enterP4(a, 0, 1, 2, 3)
	ownFlush(a)
	deliver(a, 1, 1)
	deliver(a, 2, 1)
	a.restartTo(2)
	if a.flushCount != 0 || !a.flushSeen.Empty() {
		t.Fatalf("restart kept count=%d seen=%v", a.flushCount, a.flushSeen)
	}
	enterP4(a, 0, 1, 2, 3)
	deliver(a, 3, 1) // epoch-1 straggler
	if a.flushSeen.Has(3) {
		t.Fatal("a superseded epoch's flush-done was recorded")
	}
	ownFlush(a)
	deliver(a, 3, 2)
	if a.scanned || a.flushCount != 2 {
		t.Fatalf("epoch 2 released on epoch 1's arrivals: scanned=%v count=%d", a.scanned, a.flushCount)
	}
	deliver(a, 1, 2)
	deliver(a, 2, 2)
	if !a.scanned {
		t.Fatal("barrier not released with every participant in")
	}
}

// The flush-done fan-out waits in the fabric as one packet and a cursor per
// output port, and the fabric takes each packet's record when it
// materialises it, so an agent reuses the records its earlier flush-dones'
// receivers have released instead of taking one per destination (126 on
// this 128-node mesh with one node down). A record is released as soon as
// its receiver has handled it, so even an agent whose flush-dones reach
// nodes that are still flushing takes few.
func TestFlushDoneFanOutRecyclesRecords(t *testing.T) {
	const victim = 72
	r := newRig(t, 16, 8, nil)
	// took[v] holds the records that carried v's flush-dones to live
	// receivers.
	took := make([]map[any]bool, len(r.agents))
	for i, a := range r.agents {
		took[i] = map[any]bool{}
		r.ctrls[i].SetRecoveryHandler(func(p *interconnect.Packet) {
			if m := p.Payload.(*recMsg); m.Kind == kFlushDone {
				took[m.From][p.Rec] = true
			}
			a.handlePacket(p)
		})
	}
	r.ctrls[victim].SetMode(magic.ModeDead)
	r.agents[victim].Kill()
	r.agents[0].Trigger(magic.ReasonTimeout)
	var live []int
	for i := range r.agents {
		if i != victim {
			live = append(live, i)
		}
	}
	r.run(t, 2*sim.Second, live)
	sum, most := 0, 0
	for _, i := range live {
		if len(took[i]) == 0 {
			t.Fatalf("node %d sent no flush-done", i)
		}
		sum += len(took[i])
		most = max(most, len(took[i]))
	}
	mean := float64(sum) / float64(len(live))
	t.Logf("an agent's flush-done fan-out took %.1f records on average, %d at most, for %d destinations",
		mean, most, len(live)-1)
	if mean > flushDoneRecordsPerAgent || most > flushDoneRecordsMost {
		t.Fatalf("an agent's flush-done fan-out takes %.1f records on average and %d at most, want <= %d and <= %d",
			mean, most, flushDoneRecordsPerAgent, flushDoneRecordsMost)
	}
}
