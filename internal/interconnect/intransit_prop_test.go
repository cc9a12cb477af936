package interconnect

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flashfc/internal/sim"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// The in-transit record of a channel is a single slot, which is only right
// if a link never services two packets at once. This property test drives
// random traffic across a 4×4 mesh and fails links (permanently and for
// transient windows) and routers at random instants, and at every link
// failure compares what the fabric truncated against an oracle that never
// looks at the slot: the packet in service on a sending channel is the head
// of a channel with packets queued that is neither blocked nor on a failed
// router. A failed router holds no packet in service: it destroyed the one
// it had when it failed, and a later link failure must not truncate it
// again.

// propFault is one scheduled failure.
type propFault struct {
	at     sim.Time
	kind   int // 0 FailLink, 1 FailLinkTransient, 2 FailRouter
	id     int // link or router
	window sim.Time
}

// propRun runs one seeded scenario and returns the truncated flows of each
// link failure, in order.
func propRun(t *testing.T, seed int64) [][]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo := topology.NewMesh(4, 4)
	tr := trace.New()
	cfg := DefaultConfig()
	cfg.Trace = tr
	e := sim.NewEngine(seed)
	n := New(e, topo, cfg)
	for i := 0; i < topo.Routers(); i++ {
		n.SetEndpoint(i, sinkEndpoint{})
	}

	// Random traffic.
	const horizon = 20 * sim.Microsecond
	send := sim.Callback(func(a1, _ any, _ uint64) { n.Send(a1.(*Packet)) })
	var pkts []*Packet
	for i := 0; i < 2000; i++ {
		p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), Lane: Lane(rng.Intn(int(NumLanes))), Bytes: 16}
		if rng.Intn(2) == 0 {
			p.Bytes = 128
		}
		pkts = append(pkts, p)
		e.AtCall(sim.Time(rng.Int63n(int64(horizon))), send, p, nil, 0)
	}
	var faults []propFault
	for i := 0; i < 8; i++ {
		f := propFault{at: sim.Time(rng.Int63n(int64(horizon))), kind: rng.Intn(3)}
		if f.kind == 2 {
			f.id = rng.Intn(topo.Routers())
		} else {
			f.id = rng.Intn(len(topo.Links()))
			f.window = sim.Time(100 + rng.Intn(2000))
		}
		faults = append(faults, f)
	}
	sort.Slice(faults, func(i, j int) bool { return faults[i].at < faults[j].at })

	// OnLost records only while a link failure is being applied.
	var failing bool
	var lostNow []*Packet
	n.OnLost = func(p *Packet) {
		if failing {
			lostNow = append(lostNow, p)
		}
	}
	truncatedSoFar := map[*Packet]bool{}
	var truncated [][]uint64

	for _, f := range faults {
		e.RunUntil(f.at)
		if f.kind == 2 {
			n.FailRouter(f.id)
			continue
		}
		// Oracle: who is in service on the link's sending channels?
		var want []*Packet
		if n.linkUp[f.id] {
			lk := topo.Links()[f.id]
			for _, r := range [2]int{lk.A, lk.B} {
				port := topo.PortTo(r, lk.A+lk.B-r)
				for l := Lane(0); l < NumLanes; l++ {
					ch := n.channel(r, port, l)
					if len(ch.q) > 0 && !ch.blocked && !n.routers[r].failed {
						want = append(want, ch.q[0])
					}
				}
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].flow < want[j].flow })

		failing, lostNow = true, nil
		if f.kind == 0 {
			n.FailLink(f.id)
		} else {
			n.FailLinkTransient(f.id, f.window)
		}
		failing = false

		if !reflect.DeepEqual(lostNow, want) {
			t.Fatalf("seed %d: link %d failed at %v: truncated %v, in service %v", seed, f.id, f.at, flows(lostNow), flows(want))
		}
		for _, p := range want {
			truncatedSoFar[p] = true
		}
		for _, p := range pkts {
			if p.Truncated != truncatedSoFar[p] {
				t.Fatalf("seed %d: after failing link %d: packet flow %d Truncated=%v, want %v",
					seed, f.id, p.flow, p.Truncated, truncatedSoFar[p])
			}
		}
		truncated = append(truncated, flows(want))
	}
	e.RunUntil(horizon + sim.Millisecond)

	truncPoints, dropPoints := 0, uint64(0)
	for _, pt := range tr.Points() {
		switch {
		case pt.Name == "truncate":
			truncPoints++
		case strings.HasPrefix(pt.Name, "drop-"):
			dropPoints++
		}
	}
	total := 0
	for _, fl := range truncated {
		total += len(fl)
	}
	if truncPoints != total {
		t.Fatalf("seed %d: %d truncate trace points for %d truncated packets", seed, truncPoints, total)
	}
	// Every drop site records its point and counts through one helper, so
	// the count and the points agree.
	if d := n.Dropped(); d != dropPoints {
		t.Fatalf("seed %d: Dropped %d, but %d drop-* trace points", seed, d, dropPoints)
	}
	return truncated
}

func flows(ps []*Packet) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.flow
	}
	return out
}

// The sequential fabric is the one that fails links: a partitioned fabric
// carries only fault-free traffic.
func TestInTransitSlotTruncatesExactlyTheInServicePackets(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		truncated := 0
		for seed := int64(1); seed <= 25; seed++ {
			for _, fl := range propRun(t, seed) {
				truncated += len(fl)
			}
		}
		if truncated == 0 {
			t.Fatal("no link failure ever caught a packet in service: the property went unexercised")
		}
	})
}
