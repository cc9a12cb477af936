package interconnect

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
)

// irregular is a 7-router graph with degrees 1 to 4, so the routers' channel
// blocks in the flat array have four different lengths.
func irregular() *topology.Topology {
	return topology.NewGraph(7, []topology.Link{
		{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}, {A: 2, B: 3}, {A: 3, B: 4}, {A: 2, B: 5}, {A: 5, B: 3}, {A: 3, B: 6},
	})
}

// Every (router, port, lane) must own one element of the flat channel array,
// all of it must be owned, and each channel must carry the far router and
// link of its port as the topology states them.
func TestFlatChannelLayout(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 3), topology.NewMesh(1, 5), topology.NewHypercube(4), irregular(),
	} {
		t.Run(topo.Name(), func(t *testing.T) {
			n := New(sim.NewEngine(1), topo, DefaultConfig())
			seen := make([]bool, len(n.chans))
			for r := 0; r < topo.Routers(); r++ {
				if got, want := len(n.routerChans(r)), topo.Degree(r)*int(NumLanes); got != want {
					t.Fatalf("router %d owns %d channels, want %d", r, got, want)
				}
				for p, a := range topo.Adjacency(r) {
					for l := Lane(0); l < NumLanes; l++ {
						ch := n.channel(r, p, l)
						i := int(n.routers[r].chanBase) + p*int(NumLanes) + int(l)
						if ch != &n.chans[i] || ch != &n.portChans(r, p)[l] || ch != &n.routerChans(r)[p*int(NumLanes)+int(l)] {
							t.Fatalf("r%d p%d %v: the accessors disagree about flat index %d", r, p, l, i)
						}
						if seen[i] {
							t.Fatalf("r%d p%d %v shares flat index %d", r, p, l, i)
						}
						seen[i] = true
						if int(ch.router) != r || int(ch.to) != a.To || int(ch.link) != a.Link {
							t.Fatalf("r%d p%d %v carries router %d, far router %d, link %d; the topology says %d, %d, %d",
								r, p, l, ch.router, ch.to, ch.link, r, a.To, a.Link)
						}
						if len(ch.q) != 0 || cap(ch.q) != timing.LaneBuffer || &ch.q[:1][0] != &ch.buf[0] {
							t.Fatalf("r%d p%d %v: the queue does not start on the inline array", r, p, l)
						}
					}
				}
				if len(n.routers[r].discard) != topo.Degree(r) {
					t.Fatalf("router %d has %d discard flags for %d ports", r, len(n.routers[r].discard), topo.Degree(r))
				}
			}
			if i := slices.Index(seen, false); i >= 0 {
				t.Fatalf("flat index %d of %d belongs to no (router, port, lane)", i, len(seen))
			}
		})
	}
}

// An irregular topology routes by up*/down* from the start; traffic between
// every pair must arrive.
func TestIrregularTopologyDelivers(t *testing.T) {
	topo := irregular()
	e := sim.NewEngine(1)
	n := New(e, topo, DefaultConfig())
	cols := make([]*collector, topo.Routers())
	for i := range cols {
		cols[i] = &collector{}
		n.SetEndpoint(i, cols[i])
	}
	for s := 0; s < topo.Routers(); s++ {
		for d := 0; d < topo.Routers(); d++ {
			n.Send(&Packet{Src: s, Dst: d, Lane: LaneRequest, Bytes: 16})
		}
	}
	e.Run()
	for d, c := range cols {
		if len(c.got) != topo.Routers() {
			t.Fatalf("node %d received %d packets, want %d", d, len(c.got), topo.Routers())
		}
	}
}

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// A malformed table row must be refused where it is handed over —
// SetRouterTable, for a repair row — with the offending router, destination
// and value in the message, not thousands of events later as an index panic
// on the hop that first uses it; and New must refuse a router with more
// ports than a table entry can name before it builds any table.
func TestTableShapeCheckedAtTheDoor(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	good := func() topology.Tables { return topology.DefaultTables(topo) }
	corner := 0 // two ports
	cases := []struct {
		name    string
		corrupt func(tb topology.Tables) topology.Tables
		want    []string
	}{
		{"short row", func(tb topology.Tables) topology.Tables { tb[4] = tb[4][:5]; return tb }, []string{"router 4", "5 entries", "want 9"}},
		{"port beyond the degree", func(tb topology.Tables) topology.Tables { tb[corner][7] = 2; return tb }, []string{"router 0", "destination 7", "port 2", "2 ports"}},
		{"below PortLocal", func(tb topology.Tables) topology.Tables { tb[5][1] = -3; return tb }, []string{"router 5", "destination 1", "port -3"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.corrupt(good())
			check := func(where, msg string) {
				for _, w := range c.want {
					if !strings.Contains(msg, w) {
						t.Errorf("%s panicked with %q, which does not mention %q", where, msg, w)
					}
				}
			}
			n := New(sim.NewEngine(1), topo, DefaultConfig())
			pristine := good()
			for r, row := range bad {
				if slices.Equal(row, pristine[r]) {
					n.SetRouterTable(r, row)
					continue
				}
				before := n.RouterTable(r)
				check("SetRouterTable", mustPanic(t, func() { n.SetRouterTable(r, row) }))
				if !slices.Equal(n.RouterTable(r), before) {
					t.Errorf("the refused row changed router %d's table", r)
				}
			}
		})
	}

	t.Run("degree beyond a byte-wide port", func(t *testing.T) {
		var links []topology.Link
		for leaf := 1; leaf <= topology.MaxDegree+1; leaf++ {
			links = append(links, topology.Link{A: 0, B: leaf})
		}
		star := topology.NewGraph(len(links)+1, links)
		msg := mustPanic(t, func() { New(sim.NewEngine(1), star, DefaultConfig()) })
		for _, w := range []string{"router 0", "128 ports", "at most 127"} {
			if !strings.Contains(msg, w) {
				t.Errorf("New panicked with %q, which does not mention %q", msg, w)
			}
		}
		ok := topology.NewGraph(len(links), links[:topology.MaxDegree])
		New(sim.NewEngine(1), ok, DefaultConfig()) // 127 ports fit
	})
}

// RouterTable must return what SetRouterTable installed, -1 and PortLocal
// entries included, and neither call may alias the caller's row.
func TestRouterTableRoundTrip(t *testing.T) {
	topo := topology.NewMesh(3, 3)
	pristine := topology.DefaultTables(topo)
	n := New(sim.NewEngine(1), topo, DefaultConfig())
	for r := range pristine {
		if !slices.Equal(n.RouterTable(r), pristine[r]) {
			t.Fatalf("router %d does not read back its pristine row", r)
		}
	}
	row := []topology.Port{0, 1, -1, 2, topology.PortLocal, 3, -1, 0, 1}
	want := slices.Clone(row)
	n.SetRouterTable(4, row)
	row[0] = 3 // the caller's row is its own again
	got := n.RouterTable(4)
	if !slices.Equal(got, want) {
		t.Fatalf("RouterTable(4) = %v, installed %v", got, want)
	}
	got[1] = 3
	if !slices.Equal(n.RouterTable(4), want) {
		t.Fatal("writing to RouterTable's result changed the installed row")
	}
	if !slices.Equal(pristine[4], topology.DefaultTables(topo)[4]) {
		t.Fatal("installing a row wrote through to the shared pristine tables")
	}
}

// budgetEndpoint accepts while it has budget and records what it accepted.
type budgetEndpoint struct {
	budget int
	got    []*Packet
}

func (b *budgetEndpoint) Accept(p *Packet) bool {
	if b.budget == 0 {
		return false
	}
	b.budget--
	b.got = append(b.got, p)
	return true
}

// warmWheel gives every level-0 slot of the engine's timing wheel room for a
// few events, so that a test counting allocations sees the fabric's and not
// the scheduler's first use of a slot.
func warmWheel(e *sim.Engine) {
	for slot := 0; slot < 256; slot++ {
		for i := 0; i < 4; i++ {
			e.After(sim.Time(64*slot), func() {})
		}
	}
	e.Run()
}

// checkWaiterLists verifies the bookkeeping a wake must preserve: every
// blocked channel with packets waits on exactly one list exactly once, and
// nothing that is not blocked lingers on a list.
func checkWaiterLists(t *testing.T, n *Network) {
	t.Helper()
	listed := map[*channel]int{}
	for i := range n.chans {
		for _, w := range n.chans[i].waiters {
			listed[w]++
		}
	}
	for r := range n.routers {
		for _, w := range n.routers[r].nodeWaiters {
			listed[w]++
		}
	}
	for i := range n.chans {
		ch := &n.chans[i]
		want := 0
		if ch.blocked && len(ch.q) > 0 {
			want = 1
		}
		if listed[ch] != want {
			t.Fatalf("channel %d→%d (blocked=%v, %d queued) is on waiter lists %d times, want %d",
				ch.router, ch.to, ch.blocked, len(ch.q), listed[ch], want)
		}
	}
}

// Two flows merge into one output channel whose far node takes one packet
// at a time. Every NodeReady frees one slot: the first waiter takes it and
// the second, woken in the same pass, finds the channel full again and
// re-joins the list it is being woken from — as does the channel itself on
// the node's list. Nothing may be lost, duplicated or reordered, and once
// the lists have seen their worst case the cycle allocates nothing.
func TestWakeReblocksOnTheListBeingWoken(t *testing.T) {
	e, n, _ := rig(t, 3, 3)
	sink := &budgetEndpoint{}
	n.SetEndpoint(8, sink)
	const perSource = 40
	for i := 0; i < perSource; i++ {
		n.Send(&Packet{Src: 2, Dst: 8, Lane: LaneRequest, Bytes: 16, Payload: i}) // 2→5→8
		n.Send(&Packet{Src: 3, Dst: 8, Lane: LaneRequest, Bytes: 16, Payload: i}) // 3→4→5→8
	}
	e.Run()
	merge := n.channel(5, n.Topo.PortTo(5, 8), LaneRequest)
	if len(merge.q) != timing.LaneBuffer || len(merge.waiters) != 2 {
		t.Fatalf("merge channel holds %d packets with %d waiters; the scenario needs it full with both feeders blocked",
			len(merge.q), len(merge.waiters))
	}
	checkWaiterLists(t, n)
	cycle := func() {
		sink.budget = 1
		n.NodeReady(8)
		e.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
		checkWaiterLists(t, n)
	}
	warmWheel(e)
	sink.got = slices.Grow(sink.got, 2*perSource)
	before := len(sink.got)
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a wake that re-blocks allocates %.1f times per cycle, want 0", allocs)
	}
	if got := len(sink.got) - before; got != 21 {
		t.Fatalf("%d packets delivered over 21 cycles, want one each", got)
	}
	checkWaiterLists(t, n)
	sink.budget = -1
	n.NodeReady(8)
	e.Run()
	if n.InFlight() != 0 || len(sink.got) != 2*perSource {
		t.Fatalf("%d packets delivered, %d still in flight; want %d and 0", len(sink.got), n.InFlight(), 2*perSource)
	}
	next := map[int]int{}
	for _, p := range sink.got {
		if p.Payload != next[p.Src] {
			t.Fatalf("source %d: packet %v delivered when %d was due", p.Src, p.Payload, next[p.Src])
		}
		next[p.Src]++
	}
}

// A wake nested inside a wake of the same list — here a controller that
// signals NodeReady from inside Accept — must see only the channels that
// blocked again since the outer wake began, and the outer wake must still
// reach the rest of its own entries exactly once.
func TestNestedWakeOfTheSameList(t *testing.T) {
	e, n, _ := rig(t, 3, 3)
	var log []string
	step := 0
	var ep EndpointFunc
	ep = func(p *Packet) bool {
		step++
		switch step {
		case 1, 2, 3: // arrivals: refuse all three
			log = append(log, fmt.Sprint("refuse ", p.Src))
			return false
		case 4: // outer wake, first waiter
			log = append(log, fmt.Sprint("accept ", p.Src))
			return true
		case 5: // outer wake, second waiter: blocks again
			log = append(log, fmt.Sprint("refuse ", p.Src))
			return false
		case 6: // outer wake, third waiter: wake the list from inside
			log = append(log, fmt.Sprint("enter ", p.Src))
			n.NodeReady(4)
			log = append(log, fmt.Sprint("accept ", p.Src))
			return true
		default: // the nested wake retries the second waiter
			log = append(log, fmt.Sprint("accept ", p.Src))
			return true
		}
	}
	n.SetEndpoint(4, ep)
	for i, src := range []int{1, 3, 5} {
		p := &Packet{Src: src, Dst: 4, Lane: LaneRequest, Bytes: 16}
		e.At(sim.Time(10*i), func() { n.Send(p) })
	}
	e.Run()
	if got := len(n.routers[4].nodeWaiters); got != 3 {
		t.Fatalf("%d channels blocked on node 4, want 3", got)
	}
	n.NodeReady(4)
	e.Run()
	want := []string{
		"refuse 1", "refuse 3", "refuse 5",
		"accept 1", "refuse 3", "enter 5", "accept 3", "accept 5",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("controller saw\n %v\nwant\n %v", log, want)
	}
	if n.InFlight() != 0 || len(n.routers[4].nodeWaiters) != 0 {
		t.Fatalf("%d packets in flight, %d channels still listed", n.InFlight(), len(n.routers[4].nodeWaiters))
	}
	checkWaiterLists(t, n)
}
