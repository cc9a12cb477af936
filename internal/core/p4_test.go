package core

import (
	"slices"
	"testing"

	"flashfc/internal/interconnect"
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
	if len(a.participants) != 8 || a.flushCount != 3 {
		t.Fatalf("participants=%v count=%d, want all 8 and the 3 early arrivals", a.participants, a.flushCount)
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
	if a.flushCount != 0 || slices.Contains(a.flushSeen, true) {
		t.Fatalf("restart kept count=%d seen=%v", a.flushCount, a.flushSeen)
	}
	enterP4(a, 0, 1, 2, 3)
	deliver(a, 3, 1) // epoch-1 straggler
	if a.flushSeen[3] {
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
