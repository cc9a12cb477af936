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

// fanRig is one fabric of a differential pair: a 4x4 mesh whose fan-outs
// go either through SendEach (cursor) or as one Send per destination.
type fanRig struct {
	e      *sim.Engine
	n      *Network
	cols   []*collector
	tr     *trace.Tracer
	reg    *metrics.Registry
	cursor bool
	lost   []string
	// notes records what queued saw, for the rigs to agree on.
	notes []string
}

func newFanRig(cursor bool) *fanRig {
	r := &fanRig{e: sim.NewEngine(1), tr: trace.New(), reg: metrics.NewRegistry(), cursor: cursor}
	cfg := DefaultConfig()
	cfg.Trace, cfg.Metrics = r.tr, r.reg
	r.n = New(r.e, topology.NewMesh(4, 4), cfg)
	r.n.OnLost = func(p *Packet) {
		r.lost = append(r.lost, fmt.Sprintf("t=%v flow=%d %d->%d %v trunc=%v", r.e.Now(), p.flow, p.Src, p.Dst, p.Lane, p.Truncated))
	}
	for i := 0; i < r.n.Topo.Routers(); i++ {
		c := &collector{}
		r.cols = append(r.cols, c)
		r.n.SetEndpoint(i, c)
	}
	return r
}

// fanOut sends a copy of tmpl to every node of dsts but tmpl.Src, through
// the rig's way of sending.
func (r *fanRig) fanOut(tmpl Packet, dsts []int) {
	if r.cursor {
		t := tmpl
		r.n.SendEach(&t, dsts, func(tp *Packet) *Packet { return &Packet{Payload: tp.Payload} })
		return
	}
	for _, d := range dsts {
		if d != tmpl.Src {
			p := tmpl
			p.Dst = d
			r.n.Send(&p)
		}
	}
}

// queued reports the packets router r's port toward to holds on lane,
// failing the test on the cursor rig unless some of them wait in a cursor.
func (r *fanRig) queued(t *testing.T, router, to int, lane Lane) int {
	t.Helper()
	ch := r.n.channel(router, r.n.Topo.PortTo(router, to), lane)
	k := len(ch.q)
	for _, p := range ch.q {
		if p.cur != nil {
			k += p.cur.left
		}
	}
	if r.cursor && k == len(ch.q) {
		t.Fatalf("no fan-out packet waits in a cursor at router %d's port to %d (%d queued)", router, to, len(ch.q))
	}
	r.notes = append(r.notes, fmt.Sprintf("t=%v queued=%d in flight=%d", r.e.Now(), k, r.n.InFlight()))
	return k
}

// outcome is everything the two ways of sending must agree on.
type outcome struct {
	Points    []trace.Point
	Metrics   string
	Dropped   uint64
	Lost      []string
	Delivered [][]string
	Events    uint64
	InFlight  int
	Notes     []string
}

func (r *fanRig) outcome() outcome {
	m, err := json.Marshal(r.reg.Snapshot())
	if err != nil {
		panic(err)
	}
	o := outcome{Points: r.tr.Points(), Metrics: string(m), Dropped: r.n.Dropped(), Lost: r.lost,
		Events: r.e.EventsFired(), InFlight: r.n.InFlight(), Notes: r.notes}
	for _, c := range r.cols {
		var got []string
		for _, p := range c.got {
			got = append(got, fmt.Sprintf("flow=%d %d->%d inj=%v trunc=%v", p.flow, p.Src, p.Dst, p.Injected, p.Truncated))
		}
		o.Delivered = append(o.Delivered, got)
	}
	return o
}

// diffFanOut runs script on a cursor rig and on a Send rig and fails on
// the first difference between their outcomes.
func diffFanOut(t *testing.T, script func(t *testing.T, r *fanRig)) {
	t.Helper()
	var out [2]outcome
	for i, cursor := range []bool{true, false} {
		r := newFanRig(cursor)
		script(t, r)
		r.e.Run()
		out[i] = r.outcome()
		if cursor {
			drops := map[string]int{}
			for _, p := range out[i].Points {
				drops[p.Name]++
			}
			t.Logf("%v; %s", drops, out[i].Notes)
		}
	}
	a, b := out[0], out[1]
	if len(a.Points) == 0 {
		t.Fatal("no trace points")
	}
	for i := 0; i < min(len(a.Points), len(b.Points)); i++ {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("trace point %d: cursor %+v, sends %+v", i, a.Points[i], b.Points[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("outcomes differ:\ncursor %+v\nsends  %+v", a, b)
	}
}

var everyNode = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// flushDone is the fan-out under test: node 5 (four ports) to everyone,
// on the reply lane, long enough that its queues hold it for a while.
var flushDone = Packet{Src: 5, Lane: LaneReply, Bytes: 256}

// congest starts transit traffic through router 5's east port (4 → 7 runs
// 4, 5, 6, 7) and has nodes 6 and 7 refuse deliveries until 40 µs, so the
// east port's queue backs up behind them.
func congest(r *fanRig) {
	r.cols[6].refuse, r.cols[7].refuse = true, true
	for i := 0; i < 6; i++ {
		r.n.Send(&Packet{Src: 4, Dst: 7, Lane: LaneReply, Bytes: 64})
	}
	r.e.At(1*sim.Microsecond, func() {
		for i := 0; i < 3; i++ {
			r.n.Send(&Packet{Src: 4, Dst: 6, Lane: LaneReply, Bytes: 32})
		}
	})
	r.e.At(40*sim.Microsecond, func() {
		r.cols[6].refuse, r.cols[7].refuse = false, false
		r.n.NodeReady(6)
		r.n.NodeReady(7)
	})
}

// A fan-out competing with transit traffic for its source's port, with a
// second fan-out queued behind the first, comes out as its Sends would.
func TestFanOutMatchesSendsUnderTransitTraffic(t *testing.T) {
	diffFanOut(t, func(t *testing.T, r *fanRig) {
		congest(r)
		r.e.At(500, func() { r.fanOut(flushDone, everyNode) })
		r.e.At(3*sim.Microsecond, func() {
			r.queued(t, 5, 6, LaneReply)
			second := flushDone
			second.Bytes = 16
			r.fanOut(second, everyNode)
			r.n.Send(&Packet{Src: 1, Dst: 9, Lane: LaneReply, Bytes: 16}) // 1, 5, 9
		})
	})
}

// Isolating the port a cursor waits on drops the cursor's packets in
// queue order, as it drops queued Sends: all of them behind a blocked head
// (east), all but the head that is crossing the link (south).
func TestFanOutMatchesSendsUnderDiscard(t *testing.T) {
	diffFanOut(t, func(t *testing.T, r *fanRig) {
		congest(r)
		east, south := r.n.Topo.PortTo(5, 6), r.n.Topo.PortTo(5, 9)
		r.e.At(500, func() { r.fanOut(flushDone, everyNode) })
		r.e.At(600, func() {
			r.queued(t, 5, 9, LaneReply)
			if r.n.channel(5, south, LaneReply).inTransit == nil {
				t.Fatal("the south port's head is not crossing its link")
			}
			r.n.SetDiscard(5, south, true)
		})
		r.e.At(5*sim.Microsecond, func() {
			r.queued(t, 5, 6, LaneReply)
			r.n.SetDiscard(5, east, true)
		})
		r.e.At(60*sim.Microsecond, func() {
			r.n.SetDiscard(5, east, false)
			r.n.SetDiscard(5, south, false)
		})
	})
}

// Failing the source router drops every packet its cursors hold.
func TestFanOutMatchesSendsUnderFailRouter(t *testing.T) {
	diffFanOut(t, func(t *testing.T, r *fanRig) {
		congest(r)
		r.e.At(500, func() { r.fanOut(flushDone, everyNode) })
		r.e.At(5*sim.Microsecond, func() {
			r.queued(t, 5, 6, LaneReply)
			r.n.FailRouter(5)
		})
		// A fan-out from a failed router drops at the source.
		r.e.At(6*sim.Microsecond, func() { r.fanOut(flushDone, everyNode) })
	})
}

// A link that fails while the head of a cursor's queue crosses it
// truncates that packet and black-holes the rest as each reaches the head;
// a later fan-out to the same port is sunk at the source as its Sends are.
func TestFanOutMatchesSendsUnderLinkFailure(t *testing.T) {
	diffFanOut(t, func(t *testing.T, r *fanRig) {
		r.fanOut(flushDone, everyNode)
		link := r.n.Topo.Adjacency(5)[r.n.Topo.PortTo(5, 6)].Link
		r.e.At(100, func() {
			if r.queued(t, 5, 6, LaneReply) < 2 || r.n.channel(5, r.n.Topo.PortTo(5, 6), LaneReply).inTransit == nil {
				t.Fatal("no packet in transit ahead of the cursor")
			}
			r.n.FailLink(link)
		})
		r.e.At(2*sim.Microsecond, func() { r.fanOut(flushDone, everyNode) })
	})
}

// A new table on the source leaves the queued cursor on the row it was
// sent with; a fan-out sent after the change follows the new row, which
// sends node 5's east-bound traffic south and cannot route to node 15.
func TestFanOutMatchesSendsUnderTableChange(t *testing.T) {
	diffFanOut(t, func(t *testing.T, r *fanRig) {
		congest(r)
		r.e.At(500, func() { r.fanOut(flushDone, everyNode) })
		r.e.At(4*sim.Microsecond, func() {
			r.queued(t, 5, 6, LaneReply)
			row := r.n.RouterTable(5)
			east, south := topology.Port(r.n.Topo.PortTo(5, 6)), topology.Port(r.n.Topo.PortTo(5, 9))
			for d, p := range row {
				if p == east {
					row[d] = south
				}
			}
			row[15] = -1
			r.n.SetRouterTable(5, row)
			r.fanOut(flushDone, everyNode)
		})
	})
}

// On a recovery lane, a cursor's packets bound for a node that never
// accepts are head-dropped one after another, each in its turn.
func TestFanOutMatchesSendsUnderHeadDrops(t *testing.T) {
	diffFanOut(t, func(t *testing.T, r *fanRig) {
		r.cols[6].refuse, r.cols[7].refuse = true, true
		rec := flushDone
		rec.Lane = LaneRecoveryA
		r.fanOut(rec, everyNode)
		r.fanOut(rec, everyNode)
		r.e.At(2*sim.Microsecond, func() { r.queued(t, 5, 6, LaneRecoveryA) })
	})
}
