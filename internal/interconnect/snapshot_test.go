package interconnect

import (
	"testing"

	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// A queue inflated by an elastic-injection burst must release its backing
// array as it drains: dropHead shrinks once len falls below cap/4.
func TestDropHeadShrinksAfterBurst(t *testing.T) {
	ch := &channel{}
	const burst = 1024
	for i := 0; i < burst; i++ {
		ch.q = append(ch.q, &Packet{})
	}
	peak := cap(ch.q)
	if peak < burst {
		t.Fatalf("burst did not inflate the queue: cap %d", peak)
	}
	for len(ch.q) > 0 {
		ch.dropHead()
		if c := cap(ch.q); c > shrinkFloor && len(ch.q) < c/4 {
			t.Fatalf("queue retained cap %d at len %d", c, len(ch.q))
		}
	}
	if c := cap(ch.q); c > burst/2 {
		t.Fatalf("drained queue still pins a peak-sized array: cap %d (peak %d)", c, peak)
	}
}

// Steady-state queues (below shrinkFloor) must keep the zero-allocation
// dropHead path: the shrink applies only to burst-inflated arrays.
func TestDropHeadSteadyStateNoAlloc(t *testing.T) {
	ch := &channel{q: make([]*Packet, 0, 8)}
	p := &Packet{}
	allocs := testing.AllocsPerRun(1000, func() {
		ch.q = append(ch.q, p, p, p, p)
		for len(ch.q) > 0 {
			ch.dropHead()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state dropHead allocates %.1f per cycle", allocs)
	}
}

// Snapshot/Restore must round-trip the durable fabric state onto a fresh
// network, and Snapshot must refuse a fabric with packets still queued.
func TestNetworkSnapshotRestore(t *testing.T) {
	topo := topology.NewMesh(2, 2)
	e := sim.NewEngine(1)
	n := New(e, topo, DefaultConfig())
	for i := 0; i < 5; i++ {
		n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	}
	if n.InFlight() > 0 {
		s := func() (s *Snapshot) {
			defer func() {
				if recover() == nil {
					t.Fatal("Snapshot with packets in flight did not panic")
				}
			}()
			return n.Snapshot()
		}()
		_ = s
	}
	// 0 and 3 are not neighbours on a 2x2 mesh: one unroutable drop.
	n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRecoveryA, Bytes: 16, SourceRoute: []int{0, 3}})
	e.Run()
	snap := n.Snapshot()
	if snap.Dropped != 1 {
		t.Fatalf("snapshot drop count %d, want 1", snap.Dropped)
	}

	f := New(sim.NewEngine(1), topo, DefaultConfig())
	f.Restore(snap)
	if f.Dropped() != n.Dropped() {
		t.Fatalf("restored drop count %d != source %d", f.Dropped(), n.Dropped())
	}
	// New traffic on the fork continues the flow-id sequence, keeping
	// trace flow ids and FailLink victim ordering aligned with a fresh
	// run that never snapshotted.
	p := &Packet{Src: 1, Dst: 2, Lane: LaneRequest, Bytes: 16}
	f.Send(p)
	if p.flow != snap.FlowSeq+1 {
		t.Fatalf("fork flow id %d, want %d", p.flow, snap.FlowSeq+1)
	}
}
