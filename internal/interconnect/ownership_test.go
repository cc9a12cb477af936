package interconnect

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// The fabric owns a packet from Send (or SendEach) until it destroys it,
// once, or an endpoint accepts it. These tests pin both ends.

// A router that fails while a packet is crossing one of its links destroys
// that packet; a failure of the link before the packet would have arrived
// finds nothing in transit, so the packet is lost once — not also truncated.
func TestFailRouterThenFailLinkLosesThePacketOnce(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			e := sim.NewEngine(1)
			topo := topology.NewMesh(3, 1)
			cfg := DefaultConfig()
			cfg.Reliable = reliable
			cfg.Trace = trace.New()
			n := New(e, topo, cfg)
			cols := make([]*collector, topo.Routers())
			for i := range cols {
				cols[i] = &collector{}
				n.SetEndpoint(i, cols[i])
			}
			lost := 0
			n.OnLost = func(*Packet) { lost++ }
			p := &Packet{Src: 1, Dst: 2, Lane: LaneRequest, Bytes: 1000}
			n.Send(p)
			if n.channel(1, topo.PortTo(1, 2), LaneRequest).inTransit != p {
				t.Fatal("the packet is not in service on 1->2")
			}
			e.At(50, func() { n.FailRouter(1) })
			e.At(100, func() { n.FailLink(topologyLink(t, n, 1, 2)) })
			e.Run()

			wantLost, wantRetained := 1, 0
			if reliable {
				wantLost, wantRetained = 0, 1
			}
			if lost != wantLost || n.RetainedLost() != wantRetained {
				t.Fatalf("OnLost ran %d times and %d packets are retained, want %d and %d",
					lost, n.RetainedLost(), wantLost, wantRetained)
			}
			if n.Dropped() != 1 || p.Truncated || len(cols[2].got) != 0 {
				t.Fatalf("Dropped %d, truncated %v, delivered %d; want 1, false, 0", n.Dropped(), p.Truncated, len(cols[2].got))
			}
			for _, pt := range cfg.Trace.Points() {
				if pt.Name == "truncate" {
					t.Fatalf("a truncate point for the destroyed packet: %+v", pt)
				}
			}
		})
	}
}

// rewriter is an Endpoint that records what it accepts and then, if
// rewrite is set, overwrites every field of the packet, as an endpoint that
// recycles the packet's storage on the spot may.
type rewriter struct {
	got     []string
	rewrite bool
}

func (w *rewriter) Accept(p *Packet) bool {
	w.got = append(w.got, fmt.Sprintf("flow=%d %d->%d %v %dB sr=%v inj=%v trunc=%v",
		p.flow, p.Src, p.Dst, p.Lane, p.Bytes, p.SourceRoute, p.Injected, p.Truncated))
	if w.rewrite {
		// A cursor read from here panics: it has a packet left and no
		// destinations to make it from.
		*p = Packet{Src: -1, Dst: -1, Lane: NumLanes, SourceRoute: []int{-1}, Payload: "rewritten",
			Bytes: -1, Truncated: true, retried: true, awaitPops: 0xFFFF, Injected: -1, Rec: "rewritten",
			hop: -9, cur: &cursor{left: 1}, flow: ^uint64(0)}
	}
	return true
}

// handOverRun sends a table-routed packet, a source-routed one, a loopback
// and a fan-out whose head is accepted while its cursor still holds a
// packet, to endpoints that rewrite what they accept or not.
func handOverRun(rewrite bool) outcome {
	e := sim.NewEngine(1)
	tr, reg := trace.New(), metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Trace, cfg.Metrics = tr, reg
	n := New(e, topology.NewMesh(4, 4), cfg)
	eps := make([]*rewriter, n.Topo.Routers())
	for i := range eps {
		eps[i] = &rewriter{rewrite: rewrite}
		n.SetEndpoint(i, eps[i])
	}
	n.Send(&Packet{Src: 0, Dst: 15, Lane: LaneRequest, Bytes: 16})
	n.Send(&Packet{Src: 0, Dst: 2, Lane: LaneRecoveryA, Bytes: 16, SourceRoute: []int{0, 1, 2}})
	n.Send(&Packet{Src: 3, Dst: 3, Lane: LaneRecoveryB, Bytes: 16})
	// 6 and 7 are both east of 5: the packet to 6 heads the port's queue
	// with the packet to 7 in its cursor.
	n.SendEach(&Packet{Src: 5, Lane: LaneReply, Bytes: 64}, []int{5, 6, 7},
		func(*Packet) *Packet { return &Packet{} })
	e.Run()
	m, err := json.Marshal(reg.Snapshot())
	if err != nil {
		panic(err)
	}
	o := outcome{Points: tr.Points(), Metrics: string(m), Dropped: n.Dropped(),
		Events: e.EventsFired(), InFlight: n.InFlight()}
	for _, ep := range eps {
		o.Delivered = append(o.Delivered, ep.got)
	}
	return o
}

// An endpoint may rewrite a packet it has accepted, its fan-out cursor
// included: the fabric reads nothing of it after, so every trace point,
// counter, delivery and event comes out as with an endpoint that leaves
// the packet alone.
func TestHandOverReadsNothingAfterAccept(t *testing.T) {
	clean, rewritten := handOverRun(false), handOverRun(true)
	delivered := 0
	for _, got := range clean.Delivered {
		delivered += len(got)
	}
	if delivered != 5 || clean.Dropped != 0 || clean.InFlight != 0 {
		t.Fatalf("clean run: %d delivered, %d dropped, %d in flight; want 5, 0, 0", delivered, clean.Dropped, clean.InFlight)
	}
	for i := 0; i < min(len(clean.Points), len(rewritten.Points)); i++ {
		if clean.Points[i] != rewritten.Points[i] {
			t.Fatalf("trace point %d: clean %+v, rewritten %+v", i, clean.Points[i], rewritten.Points[i])
		}
	}
	if !reflect.DeepEqual(clean, rewritten) {
		t.Fatalf("outcomes differ:\nclean     %+v\nrewritten %+v", clean, rewritten)
	}
}
