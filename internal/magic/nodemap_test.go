package magic

import (
	"slices"
	"sort"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// A GETX on a shared line invalidates every sharer but the requester in
// ascending id order, whatever order they joined in, and waits for that
// many acks: with five sharers (the spilled form) and with three (inline).
func TestGetXInvalidatesSharersInAscendingOrder(t *testing.T) {
	for _, tc := range []struct {
		sharers []int
		req     int
		want    []int
	}{
		{sharers: []int{6, 1, 5, 2, 4}, req: 0, want: []int{1, 2, 4, 5, 6}},
		{sharers: []int{6, 1, 5, 2, 4}, req: 2, want: []int{1, 4, 5, 6}},
		{sharers: []int{6, 1, 5}, req: 0, want: []int{1, 5, 6}},
	} {
		r := newRig(t, 8, DefaultConfig())
		home := r.ctrl[7]
		a := r.space.Base(7) + 0x400
		e := home.Dir.Get(a)
		e.State = coherence.DirShared
		for _, id := range tc.sharers {
			e.Sharers.Add(id)
		}
		home.handleGetX(&coherence.Message{Type: coherence.MsgGetX, Addr: a, Req: tc.req, Seq: 9})
		if e.State != coherence.DirPendingInval || int(e.AcksLeft) != len(tc.want) || !e.Sharers.Empty() {
			t.Fatalf("req %d: line is %v with %d acks left, %d sharers; want pending-inval, %d acks, none",
				tc.req, e.State, e.AcksLeft, e.Sharers.Count(), len(tc.want))
		}
		var injects []struct {
			flow uint64
			dst  int
		}
		for _, p := range r.tr.Points() {
			if p.Node == 7 && p.Name == "inject" {
				injects = append(injects, struct {
					flow uint64
					dst  int
				}{p.Flow, int(p.A)})
			}
		}
		sort.Slice(injects, func(i, j int) bool { return injects[i].flow < injects[j].flow })
		var got []int
		for _, in := range injects {
			got = append(got, in.dst)
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("req %d: invalidations sent to %v, want %v", tc.req, got, tc.want)
		}
	}
}

// bigController builds controller 0 of a 1 024-node machine on a fabric of
// its own.
func bigController() *Controller {
	const nodes = 1024
	e := sim.NewEngine(1)
	net := interconnect.New(e, topology.NewMesh(32, 32), interconnect.DefaultConfig())
	space := coherence.AddrSpace{Nodes: nodes, MemBytes: 1 << 16}
	return New(e, net, 0, space, coherence.NewDirectory(nodes),
		coherence.NewMemory(space.Base(0), space.MemBytes), coherence.NewCache(64*128), DefaultConfig())
}

// On a 1 024-node controller every node starts up and served by nothing
// else; marking a node down and up again, or its memory reachable and
// not, touches that node alone; and a snapshot restores the node map on a
// fresh controller.
func TestNodeMapsOnThousandNodes(t *testing.T) {
	const nodes = 1024
	c := bigController()
	for i := 0; i < nodes; i++ {
		if !c.NodeUp(i) || c.MemReachable(i) || !c.reachable(i) {
			t.Fatalf("node %d starts up=%v memReachable=%v", i, c.NodeUp(i), c.MemReachable(i))
		}
	}
	down := []int{0, 63, 64, 700, 1023}
	for _, id := range down {
		c.SetNodeUp(id, false)
	}
	c.SetMemReachable(700, true)
	for i := 0; i < nodes; i++ {
		isDown := slices.Contains(down, i)
		if c.NodeUp(i) == isDown || c.MemReachable(i) != (i == 700) || c.reachable(i) != (!isDown || i == 700) {
			t.Fatalf("after marking %v down and 700 served, node %d reads up=%v memReachable=%v",
				down, i, c.NodeUp(i), c.MemReachable(i))
		}
	}

	snap := c.Snapshot()
	fresh := bigController()
	fresh.Restore(snap)
	for i := 0; i < nodes; i++ {
		if fresh.NodeUp(i) != c.NodeUp(i) {
			t.Fatalf("restored node map has node %d up=%v, snapshot's %v", i, fresh.NodeUp(i), c.NodeUp(i))
		}
	}
	c.SetNodeUp(63, true)
	if fresh.NodeUp(63) || snap.NodeUp.Has(63) {
		t.Fatal("the snapshot or its restore shares the live node map")
	}

	c.SetMemReachable(700, false)
	for _, id := range down {
		c.SetNodeUp(id, true)
	}
	for i := 0; i < nodes; i++ {
		if !c.NodeUp(i) || c.MemReachable(i) {
			t.Fatalf("after the round trip node %d reads up=%v memReachable=%v", i, c.NodeUp(i), c.MemReachable(i))
		}
	}
}
