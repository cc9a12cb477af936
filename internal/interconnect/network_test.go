package interconnect

import (
	"strings"
	"testing"
	"testing/quick"

	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// collector is a test Endpoint that records delivered packets and can be
// switched into refusing or dropping modes.
type collector struct {
	got     []*Packet
	refuse  bool
	dropAll bool
}

func (c *collector) Accept(p *Packet) bool {
	if c.refuse {
		return false
	}
	if c.dropAll {
		return true
	}
	c.got = append(c.got, p)
	return true
}

// rig builds a w×h mesh fabric with collector endpoints on every node, a
// tracer and a metrics registry. When the test ends it checks that Dropped
// counts exactly the drop-* points: every drop site goes through drop.
func rig(t *testing.T, w, h int) (*sim.Engine, *Network, []*collector) {
	t.Helper()
	e := sim.NewEngine(1)
	topo := topology.NewMesh(w, h)
	cfg := DefaultConfig()
	cfg.Trace = trace.New()
	cfg.Metrics = metrics.NewRegistry()
	n := New(e, topo, cfg)
	cols := make([]*collector, topo.Routers())
	for i := range cols {
		cols[i] = &collector{}
		n.SetEndpoint(i, cols[i])
	}
	t.Cleanup(func() {
		drops := 0
		for _, p := range cfg.Trace.Points() {
			if strings.HasPrefix(p.Name, "drop-") {
				drops++
			}
		}
		if n.Dropped() != uint64(drops) {
			t.Errorf("Dropped = %d, but %d drop-* trace points", n.Dropped(), drops)
		}
	})
	return e, n, cols
}

// points counts the packet trace points named name on a rig's fabric.
func points(n *Network, name string) int {
	c := 0
	for _, p := range n.cfg.Trace.Points() {
		if p.Name == name {
			c++
		}
	}
	return c
}

func TestBasicDelivery(t *testing.T) {
	e, n, cols := rig(t, 4, 4)
	n.Send(&Packet{Src: 0, Dst: 15, Lane: LaneRequest, Bytes: 16, Payload: "hello"})
	e.Run()
	if len(cols[15].got) != 1 {
		t.Fatalf("delivered %d, want 1", len(cols[15].got))
	}
	if cols[15].got[0].Payload != "hello" {
		t.Fatal("payload mangled")
	}
	if got := points(n, "deliver"); got != 1 {
		t.Fatalf("deliver points = %d", got)
	}
}

func TestLoopback(t *testing.T) {
	e, n, cols := rig(t, 2, 2)
	n.Send(&Packet{Src: 1, Dst: 1, Lane: LaneReply, Bytes: 144})
	e.Run()
	if len(cols[1].got) != 1 {
		t.Fatalf("loopback not delivered")
	}
}

func TestInOrderDeliveryPerPair(t *testing.T) {
	e, n, cols := rig(t, 4, 4)
	for i := 0; i < 50; i++ {
		n.Send(&Packet{Src: 0, Dst: 15, Lane: LaneRequest, Bytes: 16, Payload: i})
	}
	e.Run()
	if len(cols[15].got) != 50 {
		t.Fatalf("delivered %d, want 50", len(cols[15].got))
	}
	for i, p := range cols[15].got {
		if p.Payload != i {
			t.Fatalf("out of order at %d: got %v", i, p.Payload)
		}
	}
}

func TestSourceRoutedDelivery(t *testing.T) {
	e, n, cols := rig(t, 3, 3)
	// Take the scenic route 0 -> 3 -> 6 -> 7 -> 8 instead of dimension order.
	n.Send(&Packet{
		Src: 0, Dst: 8, Lane: LaneRecoveryA, Bytes: 16,
		SourceRoute: []int{0, 3, 6, 7, 8},
	})
	e.Run()
	if len(cols[8].got) != 1 {
		t.Fatal("source-routed packet not delivered")
	}
}

func TestSourceRouteSelf(t *testing.T) {
	e, n, cols := rig(t, 2, 2)
	n.Send(&Packet{Src: 2, Dst: 2, Lane: LaneRecoveryA, SourceRoute: []int{2}, Bytes: 8})
	e.Run()
	if len(cols[2].got) != 1 {
		t.Fatal("self source route not delivered")
	}
}

func TestBadSourceRoutePanics(t *testing.T) {
	_, n, _ := rig(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("bad source route should panic")
		}
	}()
	n.Send(&Packet{Src: 0, Dst: 3, SourceRoute: []int{1, 3}, Lane: LaneRecoveryA})
}

func TestFailedRouterSinksTraffic(t *testing.T) {
	e, n, cols := rig(t, 4, 4)
	n.FailRouter(1) // on the dimension-order path 0->3
	n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	e.Run()
	if len(cols[3].got) != 0 {
		t.Fatal("packet should have been sunk by failed router")
	}
	if points(n, "drop-router") != 1 || n.Dropped() != 1 {
		t.Fatalf("router drop not counted: %d points, Dropped %d", points(n, "drop-router"), n.Dropped())
	}
}

func TestFailedLinkBlackHole(t *testing.T) {
	e, n, cols := rig(t, 4, 1)
	// Fail link 1-2 before sending: traffic is silently sunk.
	l := topologyLink(t, n, 1, 2)
	n.FailLink(l)
	n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	e.Run()
	if len(cols[3].got) != 0 {
		t.Fatal("packet should have been black-holed")
	}
	if n.cfg.Metrics.Counter("interconnect.blackholed_packets").Value() != 1 || n.Dropped() != 1 {
		t.Fatalf("black hole not counted: Dropped %d", n.Dropped())
	}
}

func TestInFlightTruncationOnLinkFailure(t *testing.T) {
	e, n, cols := rig(t, 4, 1)
	l := topologyLink(t, n, 1, 2)
	n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 128})
	// Fail the link while the packet is being serviced across it. One hop
	// takes ~194 ns for a 128-byte packet; the packet reaches link 1-2 on
	// its second hop.
	e.At(250, func() { n.FailLink(l) })
	e.Run()
	if len(cols[3].got) != 1 {
		t.Fatalf("truncated packet should still be delivered, got %d", len(cols[3].got))
	}
	if !cols[3].got[0].Truncated {
		t.Fatal("packet should be marked truncated")
	}
	if n.cfg.Metrics.Counter("interconnect.truncated_packets").Value() != 1 || points(n, "deliver") != 1 {
		t.Fatal("truncated delivery not counted")
	}
}

func TestRefusingNodeCongestsFabric(t *testing.T) {
	e, n, cols := rig(t, 4, 1)
	cols[3].refuse = true // node 3 controller stuck in an infinite loop
	for i := 0; i < 30; i++ {
		n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	}
	e.RunUntil(sim.Millisecond)
	if got := n.InFlight(); got == 0 {
		t.Fatal("fabric should be congested with blocked packets")
	}
	if len(cols[3].got) != 0 {
		t.Fatal("refusing node must not receive packets")
	}
	// Recovery isolates the node: its own router discards local traffic.
	n.SetDiscardLocal(3, true)
	e.Run()
	if got := n.InFlight(); got != 0 {
		t.Fatalf("fabric should drain after isolation, %d in flight", got)
	}
	if points(n, "drop-deadnode") == 0 {
		t.Fatal("dead-node drop not counted")
	}
}

func TestCongestionDelaysInnocentTraffic(t *testing.T) {
	// Traffic from 0 to 3 shares channels with traffic from 0 to 2 on a
	// 4x1 mesh; when node 3 stops accepting, 0->2 still gets through
	// (separate final channel) but 0->3 hogs shared buffers.
	e, n, cols := rig(t, 4, 1)
	cols[3].refuse = true
	for i := 0; i < 20; i++ {
		n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	}
	n.Send(&Packet{Src: 0, Dst: 2, Lane: LaneRequest, Bytes: 16, Payload: "victim"})
	e.RunUntil(10 * sim.Millisecond)
	// The victim is stuck behind blocked packets in the shared channels.
	if len(cols[2].got) != 0 {
		t.Fatal("victim packet should be stuck behind congestion")
	}
	n.SetDiscardLocal(3, true)
	e.Run()
	if len(cols[2].got) != 1 {
		t.Fatal("victim packet should be delivered after isolation")
	}
}

func TestRecoveryLanesBypassCongestion(t *testing.T) {
	e, n, cols := rig(t, 4, 1)
	cols[3].refuse = true
	for i := 0; i < 30; i++ {
		n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	}
	e.RunUntil(sim.Millisecond)
	// A recovery-lane packet to node 2 sails through the congested path.
	n.Send(&Packet{
		Src: 0, Dst: 2, Lane: LaneRecoveryA, Bytes: 16,
		SourceRoute: []int{0, 1, 2}, Payload: "rescue",
	})
	e.RunUntil(2 * sim.Millisecond)
	if len(cols[2].got) != 1 || cols[2].got[0].Payload != "rescue" {
		t.Fatal("recovery lane packet should bypass normal-lane congestion")
	}
}

func TestRecoveryHeadDrop(t *testing.T) {
	e, n, cols := rig(t, 4, 1)
	cols[3].refuse = true
	// Recovery packets to the refusing node get dropped after the head
	// timeout instead of backing up forever (§4.1).
	for i := 0; i < 3; i++ {
		n.Send(&Packet{
			Src: 0, Dst: 3, Lane: LaneRecoveryA, Bytes: 16,
			SourceRoute: []int{0, 1, 2, 3},
		})
	}
	e.RunUntil(sim.Second)
	if points(n, "drop-headtimeout") == 0 {
		t.Fatal("blocked recovery packets should be head-dropped")
	}
	if n.InFlight() != 0 {
		t.Fatalf("recovery lane should self-drain, %d in flight", n.InFlight())
	}
}

// A sender may recycle a delivered packet's storage for its next packet.
// The head-drop timeout armed while the first injection was blocked must
// not drop the second when it blocks at the same head: the second is
// dropped a full timeout after its own block.
func TestStaleHeadDropSparesRecycledPacket(t *testing.T) {
	e, n, cols := rig(t, 2, 1)
	var p Packet
	send := func() {
		p = Packet{Src: 0, Dst: 1, Lane: LaneRecoveryA, Bytes: 16, SourceRoute: []int{0, 1}}
		n.Send(&p)
	}
	cols[1].refuse = true
	send()
	e.RunUntil(2 * sim.Microsecond) // blocked at node 1: the first timeout is armed
	cols[1].refuse = false
	n.NodeReady(1)
	e.RunUntil(3 * sim.Microsecond)
	if len(cols[1].got) != 1 || n.InFlight() != 0 {
		t.Fatalf("first injection: %d delivered, %d in flight", len(cols[1].got), n.InFlight())
	}
	cols[1].refuse = true
	// The same storage, blocked at the same head; run past the first
	// timeout but not the second.
	send()
	e.RunUntil(timing.RecoveryHeadDrop + 2*sim.Microsecond)
	if drops := points(n, "drop-headtimeout"); drops != 0 || n.InFlight() != 1 {
		t.Fatalf("the first injection's timeout dropped the second: %d drops, %d in flight", drops, n.InFlight())
	}
	e.RunUntil(sim.Millisecond)
	if drops := points(n, "drop-headtimeout"); drops != 1 || n.InFlight() != 0 {
		t.Fatalf("the second injection's own timeout: %d drops, %d in flight", drops, n.InFlight())
	}
}

// A recovery lane drops what is stuck, not what is slow. A head waiting
// for space behind state messages that take longer than RecoveryHeadDrop
// to serialize is not dropped: the channel it waits on is serving, and
// removes a head each time one finishes.
func TestRecoveryHeadDropSparesSlowLane(t *testing.T) {
	e, n, cols := rig(t, 3, 1)
	const long = 3 * timing.RecoveryHeadDrop / timing.LinkBytePeriod // bytes
	for i := 0; i < timing.LaneBuffer; i++ {
		n.Send(&Packet{Src: 1, Dst: 2, Lane: LaneRecoveryA, Bytes: int(long)})
	}
	n.Send(&Packet{Src: 0, Dst: 2, Lane: LaneRecoveryA, Bytes: 16})
	e.RunUntil(2 * timing.RecoveryHeadDrop)
	if got := len(cols[2].got); got != 0 {
		t.Fatalf("%d packets delivered before the first long one could finish", got)
	}
	e.Run()
	if drops := points(n, "drop-headtimeout"); drops != 0 {
		t.Fatalf("%d head drops on a lane that kept moving", drops)
	}
	if got := len(cols[2].got); got != timing.LaneBuffer+1 || cols[2].got[timing.LaneBuffer].Src != 0 {
		t.Fatalf("%d packets delivered, want %d with node 0's last", got, timing.LaneBuffer+1)
	}
}

// A head behind a channel that neither moves nor serves is still dropped.
// Four source-routed streams around the 2x2 mesh's ring fill every
// injection queue, so each stream's head waits for space in the next
// stream's channel, whose own head waits in turn: a cycle that only a
// head drop breaks.
func TestRecoveryHeadDropBreaksStuckCycle(t *testing.T) {
	e, n, _ := rig(t, 2, 2)
	ring := []int{0, 1, 3, 2}
	for i, r := range ring {
		route := []int{r, ring[(i+1)%4], ring[(i+2)%4]}
		for k := 0; k <= timing.LaneBuffer; k++ {
			n.Send(&Packet{Src: r, Dst: route[2], Lane: LaneRecoveryA, Bytes: 16, SourceRoute: route})
		}
	}
	e.RunUntil(timing.RecoveryHeadDrop / 2)
	if drops := points(n, "drop-headtimeout"); drops != 0 || n.InFlight() != 4*(timing.LaneBuffer+1) {
		t.Fatalf("before the timeout: %d drops, %d in flight; want a stuck cycle", drops, n.InFlight())
	}
	e.Run()
	if points(n, "drop-headtimeout") == 0 {
		t.Fatal("no head drop broke the cycle")
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d packets still in flight", n.InFlight())
	}
}

func TestIsolationDiscardsQueuedTraffic(t *testing.T) {
	e, n, cols := rig(t, 4, 1)
	cols[3].refuse = true
	for i := 0; i < 30; i++ {
		n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16})
	}
	e.RunUntil(sim.Millisecond)
	inFlight := n.InFlight()
	if inFlight == 0 {
		t.Fatal("expected congestion before isolation")
	}
	// Isolate by discarding at router 2's port toward 3 and at the local
	// delivery of router 3.
	p := n.Topo.PortTo(2, 3)
	n.SetDiscard(2, p, true)
	n.SetDiscardLocal(3, true)
	e.Run()
	if n.InFlight() != 0 {
		t.Fatalf("fabric should drain after isolation, %d in flight", n.InFlight())
	}
}

func TestSetRouterTableReroutes(t *testing.T) {
	e, n, cols := rig(t, 3, 3)
	// Break dimension-order path 0->1->2 by failing link 1-2, then
	// reprogram tables so 0->2 goes around through row 1.
	n.FailLink(topologyLink(t, n, 1, 2))
	n.Send(&Packet{Src: 0, Dst: 2, Lane: LaneRequest, Bytes: 16})
	e.Run()
	if len(cols[2].got) != 0 {
		t.Fatal("packet should be lost before rerouting")
	}
	v := topology.NewView(n.Topo)
	v.FailLink(topologyLink(t, n, 1, 2))
	_, bft := v.DiameterBound()
	tb := topology.UpDownTables(v, bft)
	for r := 0; r < 9; r++ {
		n.SetRouterTable(r, tb[r])
	}
	n.Send(&Packet{Src: 0, Dst: 2, Lane: LaneRequest, Bytes: 16})
	e.Run()
	if len(cols[2].got) != 1 {
		t.Fatal("packet should be delivered after rerouting")
	}
}

func TestProbeRouterAliveAndDead(t *testing.T) {
	e, n, _ := rig(t, 3, 1)
	var answers []uint64
	answered := func(_, _ any, u uint64) { answers = append(answers, u) }
	probe := func(u uint64, path ...int) bool {
		answers = nil
		n.ProbeRouter(path, answered, nil, nil, u)
		e.Run()
		return len(answers) == 1 && answers[0] == u
	}
	if !probe(1, 0, 1, 2) {
		t.Fatal("probe of healthy path should answer")
	}
	n.FailRouter(2)
	if probe(2, 0, 1, 2) || len(answers) != 0 {
		t.Fatal("probe of dead router must not answer")
	}
	// Dead link on the path also kills the probe.
	if !probe(3, 0, 1) {
		t.Fatal("probe of live router should answer")
	}
	n.FailLink(topologyLink(t, n, 0, 1))
	if probe(4, 0, 1) || len(answers) != 0 {
		t.Fatal("probe across dead link must not answer")
	}
}

func TestFailRouterDropsQueuedPackets(t *testing.T) {
	e, n, _ := rig(t, 4, 1)
	for i := 0; i < 10; i++ {
		n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 128})
	}
	e.RunUntil(100) // packets queued at router 0/1
	n.FailRouter(1)
	e.Run()
	if n.InFlight() != 0 {
		t.Fatalf("in flight after router failure: %d", n.InFlight())
	}
}

func TestLaneStringAndPacketString(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, Lane: LaneRecoveryB, Bytes: 16, SourceRoute: []int{1, 2}, Truncated: true}
	s := p.String()
	if s == "" {
		t.Fatal("empty packet string")
	}
	for _, l := range []Lane{LaneRequest, LaneReply, LaneRecoveryA, LaneRecoveryB, Lane(9)} {
		if l.String() == "" {
			t.Fatal("empty lane string")
		}
	}
}

// topologyLink finds the link id between routers a and b.
func topologyLink(t *testing.T, n *Network, a, b int) int {
	t.Helper()
	p := n.Topo.PortTo(a, b)
	if p < 0 {
		t.Fatalf("no link %d-%d", a, b)
	}
	return n.Topo.Adjacency(a)[p].Link
}

// Property: per (src,dst,lane) delivery order always matches send order,
// for random multi-flow traffic — the §4.5 flush barrier depends on it.
func TestQuickInOrderDelivery(t *testing.T) {
	f := func(seed int64) bool {
		e := sim.NewEngine(seed)
		topo := topology.NewMesh(3, 3)
		n := New(e, topo, DefaultConfig())
		type key struct {
			src, dst int
			lane     Lane
		}
		got := map[key][]int{}
		for i := 0; i < 9; i++ {
			i := i
			n.SetEndpoint(i, EndpointFunc(func(p *Packet) bool {
				pl := p.Payload.([2]int)
				got[key{p.Src, p.Dst, p.Lane}] = append(got[key{p.Src, p.Dst, p.Lane}], pl[1])
				return true
			}))
		}
		rng := e.Rand()
		sent := map[key]int{}
		for i := 0; i < 200; i++ {
			src, dst := rng.Intn(9), rng.Intn(9)
			lane := Lane(rng.Intn(2))
			k := key{src, dst, lane}
			n.Send(&Packet{Src: src, Dst: dst, Lane: lane, Bytes: 16 + rng.Intn(128),
				Payload: [2]int{src, sent[k]}})
			sent[k]++
		}
		e.Run()
		for k, seq := range got {
			if len(seq) != sent[k] {
				return false
			}
			for i, v := range seq {
				if v != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReliableModeRetainsAndRetransmits(t *testing.T) {
	e := sim.NewEngine(1)
	topo := topology.NewMesh(4, 1)
	cfg := DefaultConfig()
	cfg.Reliable = true
	n := New(e, topo, cfg)
	cols := make([]*collector, 4)
	for i := range cols {
		cols[i] = &collector{}
		n.SetEndpoint(i, cols[i])
	}
	lostSeen := 0
	n.OnLost = func(p *Packet) { lostSeen++ }
	// Black-hole a packet on a dead link: it must be retained, not lost.
	n.FailLink(topologyLink(t, n, 1, 2))
	n.Send(&Packet{Src: 0, Dst: 3, Lane: LaneRequest, Bytes: 16, Payload: "precious"})
	e.Run()
	if len(cols[3].got) != 0 {
		t.Fatal("packet delivered across a dead link?")
	}
	if lostSeen != 0 {
		t.Fatal("reliable fabric must not report retained packets as lost")
	}
	if n.RetainedLost() != 1 {
		t.Fatalf("retained = %d, want 1", n.RetainedLost())
	}
	// Restore connectivity (reroute around the link) and retransmit.
	v := topology.NewView(topo)
	v.FailLink(topologyLink(t, n, 1, 2))
	// A 4x1 mesh cannot route around its only path: repair by rerouting
	// is impossible here, so check the dead-destination branch instead.
	resent := n.RetransmitLost(func(node int) bool { return node != 3 })
	e.Run()
	if resent != 0 || lostSeen != 1 {
		t.Fatalf("dead-destination retained packet: resent=%d lost=%d", resent, lostSeen)
	}
}

func TestReliableRetransmitDelivers(t *testing.T) {
	e := sim.NewEngine(1)
	topo := topology.NewMesh(3, 3)
	cfg := DefaultConfig()
	cfg.Reliable = true
	n := New(e, topo, cfg)
	cols := make([]*collector, 9)
	for i := range cols {
		cols[i] = &collector{}
		n.SetEndpoint(i, cols[i])
	}
	// Kill the dimension-order path 0->1->2, stranding a packet.
	n.FailLink(topologyLink(t, n, 1, 2))
	n.Send(&Packet{Src: 0, Dst: 2, Lane: LaneReply, Bytes: 128, Payload: "wb"})
	e.Run()
	if n.RetainedLost() != 1 {
		t.Fatalf("retained = %d", n.RetainedLost())
	}
	// Reroute around the failure, then retransmit.
	v := topology.NewView(topo)
	v.FailLink(topologyLink(t, n, 1, 2))
	_, bft := v.DiameterBound()
	tb := topology.UpDownTables(v, bft)
	for r := 0; r < 9; r++ {
		n.SetRouterTable(r, tb[r])
	}
	if resent := n.RetransmitLost(func(int) bool { return true }); resent != 1 {
		t.Fatalf("resent = %d", resent)
	}
	e.Run()
	if len(cols[2].got) != 1 || cols[2].got[0].Payload != "wb" {
		t.Fatal("retransmitted packet not delivered")
	}
	// A retransmitted packet that dies again is a real loss.
	lost := 0
	n.OnLost = func(p *Packet) { lost++ }
	n.FailRouter(2)
	if n.RetransmitLost(func(int) bool { return true }) != 0 {
		t.Fatal("nothing should remain retained")
	}
}

func TestLoopbackDiscardLocalDropsRetry(t *testing.T) {
	e, n, cols := rig(t, 2, 2)
	cols[1].refuse = true // wedged controller
	n.Send(&Packet{Src: 1, Dst: 1, Lane: LaneRequest, Bytes: 16})
	e.RunUntil(100 * sim.Microsecond)
	if len(cols[1].got) != 0 {
		t.Fatal("refused loopback delivered?")
	}
	// Isolation stops the retry loop; the simulation must drain fully.
	n.SetDiscardLocal(1, true)
	e.Run()
	if points(n, "drop-deadnode") != 1 || n.Dropped() != 1 {
		t.Fatal("loopback should be dropped by local discard")
	}
}
