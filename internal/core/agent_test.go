package core

import (
	"slices"
	"testing"
	"unsafe"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// rig wires engine + fabric + controllers + agents without the machine
// layer, so the algorithm can be observed directly.
type rig struct {
	e      *sim.Engine
	topo   *topology.Topology
	net    *interconnect.Network
	ctrls  []*magic.Controller
	agents []*Agent
	done   map[int]*Report
}

func newRig(t *testing.T, w, h int, mod func(*Config)) *rig {
	t.Helper()
	return newRigOn(t, topology.NewMesh(w, h), mod)
}

// newRigOn is newRig on any topology.
func newRigOn(t *testing.T, topo *topology.Topology, mod func(*Config)) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	net := interconnect.New(e, topo, interconnect.DefaultConfig())
	n := topo.Routers()
	space := coherence.AddrSpace{Nodes: n, MemBytes: 64 << 10}
	r := &rig{e: e, topo: topo, net: net, done: map[int]*Report{}}
	for i := 0; i < n; i++ {
		ctrl := magic.New(e, net, i, space,
			coherence.NewDirectory(n),
			coherence.NewMemory(space.Base(i), space.MemBytes),
			coherence.NewCache(16<<10), magic.DefaultConfig())
		cfg := DefaultConfig()
		cfg.OnComplete = func(rep *Report) { r.done[rep.Node] = rep }
		if mod != nil {
			mod(&cfg)
		}
		r.ctrls = append(r.ctrls, ctrl)
		r.agents = append(r.agents, NewAgent(e, net, ctrl, topo, cfg))
	}
	return r
}

// run drives the engine until all the given nodes completed or the deadline.
func (r *rig) run(t *testing.T, deadline sim.Time, expect []int) {
	t.Helper()
	for r.e.Now() < deadline {
		r.e.RunUntil(r.e.Now() + sim.Millisecond)
		all := true
		for _, n := range expect {
			if r.done[n] == nil {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	for _, a := range r.agents {
		t.Log(a.DebugString())
	}
	t.Fatalf("agents did not complete: have %d reports", len(r.done))
}

func TestFalseAlarmFullCycle(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	r.agents[3].Trigger(magic.ReasonFalseAlarm)
	r.run(t, 2*sim.Second, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for n, rep := range r.done {
		if rep.ShutDown || rep.Isolated {
			t.Fatalf("node %d should survive a false alarm", n)
		}
		if rep.Incoherent != 0 {
			t.Fatalf("node %d marked lines incoherent on a false alarm", n)
		}
		if rep.P1End == 0 || rep.P2End < rep.P1End || rep.P4End < rep.P2End {
			t.Fatalf("node %d phase times inconsistent: %+v", n, rep)
		}
	}
	// Everyone should agree the whole machine is up.
	for _, c := range r.ctrls {
		for i := 0; i < 8; i++ {
			if !c.NodeUp(i) {
				t.Fatalf("node %d marked down after false alarm", i)
			}
		}
	}
}

func TestCwnStopsAtFunctioningNodes(t *testing.T) {
	// 4x2 mesh; node 5 (1,1) dead with live router: its neighbors reach
	// *through* its router. cwn(1) must be {0, 2, 4, 6}: direct neighbors
	// 0 and 2, plus 4 and 6 through dead node 5's router.
	r := newRig(t, 4, 2, nil)
	r.ctrls[5].SetMode(magic.ModeDead)
	r.agents[5].Kill()
	r.agents[1].Trigger(magic.ReasonTimeout)
	r.run(t, 2*sim.Second, []int{0, 1, 2, 3, 4, 6, 7})
	rep := r.done[1]
	if rep.CwnSize != 4 {
		t.Fatalf("cwn size = %d, want 4 (got agent: %s)", rep.CwnSize, r.agents[1].DebugString())
	}
	want := map[int]bool{0: true, 2: true, 4: true, 6: true}
	for _, q := range r.agents[1].cwn {
		if !want[q] {
			t.Fatalf("unexpected cwn member %d (cwn=%v)", q, r.agents[1].cwn)
		}
	}
	// Corner node 0 is not adjacent to the dead node: cwn(0) = {1, 4}.
	if got := r.agents[0].cwn; len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("cwn(0) = %v, want [1 4]", got)
	}
}

func TestNodeMapConsensusAfterDissemination(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	r.ctrls[6].SetMode(magic.ModeDead)
	r.agents[6].Kill()
	r.agents[2].Trigger(magic.ReasonTimeout)
	r.run(t, 2*sim.Second, []int{0, 1, 2, 3, 4, 5, 7})
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7} {
		for i := 0; i < 8; i++ {
			want := i != 6
			if r.ctrls[n].NodeUp(i) != want {
				t.Fatalf("node %d's map disagrees on %d", n, i)
			}
		}
		if r.done[n].Rounds == 0 {
			t.Fatalf("node %d ran no dissemination rounds", n)
		}
	}
}

// A round message a recovery lane drops is subsumed by the sender's next
// one, since merge is a join: agent 0 never receives node 1's round-1
// state, merges round 1 from node 1's round-2 state, and recovery
// completes with no epoch restart anywhere.
func TestP2MergesLostRoundFromLaterMessage(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	a := r.agents[0]
	withheld, stoodIn := false, false
	r.ctrls[0].SetRecoveryHandler(func(p *interconnect.Packet) {
		if m, ok := p.Payload.(*recMsg); ok && m.Kind == kState && m.From == 1 {
			switch {
			case m.Round == 1 && !withheld:
				withheld = true
				return
			case m.Round == 2 && a.phase == PhaseDissemination && a.round == 1:
				stoodIn = true
			}
		}
		a.handlePacket(p)
	})
	r.agents[3].Trigger(magic.ReasonFalseAlarm)
	r.run(t, 2*sim.Second, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if !withheld || !stoodIn {
		t.Fatalf("node 1's round-1 state withheld: %v; its round-2 state reached agent 0 in round 1: %v", withheld, stoodIn)
	}
	for n, rep := range r.done {
		if rep.Restarts != 0 {
			t.Fatalf("node %d restarted its epoch %d times", n, rep.Restarts)
		}
	}
	if got := r.done[0].Rounds; got < 2 {
		t.Fatalf("agent 0 ran %d rounds, want at least 2", got)
	}
}

func TestFailureUnitDoom(t *testing.T) {
	units := []int{0, 0, 1, 1, 0, 0, 1, 1} // columns 0-1 unit 0, 2-3 unit 1
	r := newRig(t, 4, 2, func(c *Config) { c.FailureUnits = units })
	r.ctrls[2].SetMode(magic.ModeDead) // unit 1 loses a node
	r.agents[2].Kill()
	r.agents[1].Trigger(magic.ReasonTimeout)
	r.run(t, 2*sim.Second, []int{0, 1, 3, 4, 5, 6, 7})
	for n, rep := range r.done {
		inUnit1 := units[n] == 1
		if inUnit1 != rep.ShutDown {
			t.Fatalf("node %d: ShutDown=%v, want %v", n, rep.ShutDown, inUnit1)
		}
	}
}

func TestIsolatedNodeShutsDown(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	// Kill node 3's router: it cannot reach anyone.
	r.net.FailRouter(3)
	r.agents[3].Trigger(magic.ReasonTimeout)
	r.run(t, 2*sim.Second, []int{3})
	rep := r.done[3]
	if !rep.Isolated || !rep.ShutDown {
		t.Fatalf("report = %+v, want isolated shutdown", rep)
	}
	if r.ctrls[3].Mode() != magic.ModeDead {
		t.Fatal("isolated node's controller should be dead")
	}
}

func TestQuorumRefusesMinorityIsland(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	// Cut column 0 (nodes 0 and 4) off: links 0-1 and 4-5.
	for _, pair := range [][2]int{{0, 1}, {4, 5}} {
		p := r.topo.PortTo(pair[0], pair[1])
		r.net.FailLink(r.topo.Adjacency(pair[0])[p].Link)
	}
	r.agents[0].Trigger(magic.ReasonTimeout)
	r.agents[1].Trigger(magic.ReasonTimeout)
	r.run(t, 3*sim.Second, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, n := range []int{0, 4} {
		if !r.done[n].ShutDown {
			t.Fatalf("minority node %d should shut down", n)
		}
	}
	for _, n := range []int{1, 2, 3, 5, 6, 7} {
		if r.done[n].ShutDown {
			t.Fatalf("majority node %d should survive", n)
		}
	}
}

func TestBarrierTopologyHelpers(t *testing.T) {
	r := newRig(t, 4, 2, nil)
	a := r.agents[0]
	// Hand the agent a converged view so the helpers can be probed
	// without running the algorithm.
	a.st = allUp(r.topo)
	a.conv = a.cfg.Memo.lookup(a.st, r.topo)
	a.conv.converge()
	if a.conv.root != 0 || !slices.Equal(a.conv.parts, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("converged on root %d and participants %v, want 0 and every node", a.conv.root, a.conv.parts)
	}
	if got := a.barrierParent(0); got != -1 {
		t.Fatalf("root's parent = %d", got)
	}
	for v := 1; v < 8; v++ {
		p := a.barrierParent(v)
		if p < 0 || p == v {
			t.Fatalf("parent(%d) = %d", v, p)
		}
		route := a.bftRoute(v, p)
		if len(route) < 2 || route[0] != v || route[len(route)-1] != p {
			t.Fatalf("bftRoute(%d,%d) = %v", v, p, route)
		}
	}
	// Children of the root must cover exactly the nodes whose parent is 0.
	ch := a.barrierChildren(0)
	for _, c := range ch {
		if a.barrierParent(c) != 0 {
			t.Fatalf("child %d's parent is not the root", c)
		}
	}
	// The epoch's tree caches the same neighbours and routes.
	tree := a.barrierTree()
	if tree.parent != -1 || tree.up != nil || !slices.Equal(tree.children, ch) || len(tree.down) != len(ch) {
		t.Fatalf("tree = %+v, want the root with children %v", tree, ch)
	}
	for i, c := range ch {
		if !slices.Equal(tree.down[i], a.bftRoute(0, c)) {
			t.Fatalf("tree route to child %d = %v, want %v", c, tree.down[i], a.bftRoute(0, c))
		}
	}
	if a.barrierTree() != tree {
		t.Fatal("the tree should be built once per epoch")
	}
}

// A finished agent stays resident with its machine, so it keeps none of the
// epoch's scratch and nothing N-sized: P2's round snapshot goes when P2
// ends; its inbox rows, P1's per-node state, probes, ping timeouts and
// route arena, the snapshot arena, the barrier states and tree, its own
// tree's buffers, the record free list, its references into the memo (the
// view, the tree, the participant list and the participant set) and the
// flush barrier's set of flush-dones seen by the time the node resumes,
// shuts down with its failure unit, or dies.
func TestFinishedAgentHoldsNoScratch(t *testing.T) {
	scratch := func(a *Agent) string {
		held := ""
		for _, f := range []struct {
			name string
			held bool
		}{
			{"snapshot", a.snap != nil}, {"tree", a.tree != nil},
			{"epoch scratch (node state, probes, ping timeouts, route and snapshot arenas, barriers, inbox rows, own tree buffers, record free list)", a.ep != nil},
			{"memo entry (view, BFT, participant list, participant set)", a.conv != nil},
			{"bound's memo entry", a.boundAt != nil},
			{"own BFT", a.own != nil}, {"flush-done set", a.flushSeen != nil},
		} {
			if f.held {
				held += " " + f.name
			}
		}
		return held
	}
	units := []int{0, 0, 1, 1, 0, 0, 1, 1} // columns 0-1 unit 0, 2-3 unit 1
	var r *rig
	trees, probed, routed := 0, 0, 0
	r = newRig(t, 4, 2, func(c *Config) {
		c.FailureUnits = units
		c.OnPhase = func(node int, p Phase) {
			a := r.agents[node]
			switch p {
			case PhaseDissemination:
				if ep := a.ep; ep != nil && len(ep.probes) > 0 && len(ep.paths) > 0 && len(ep.nodes) > 0 {
					probed++
				}
			case PhaseInterconnect:
				if a.snap != nil || a.finalState == nil {
					t.Errorf("node %d entered P3 holding its round snapshot", node)
				}
			case PhaseCoherence:
				if e := a.conv; a.tree != nil && len(a.ep.bars) > 0 && e != nil && e.bft != nil && len(e.parts) > 0 && a.flushSeen != nil {
					trees++
				}
				// Every agent can route to every participant from its
				// own tree; ask for one outside cwn to build it.
				for _, q := range a.conv.parts {
					if _, inCwn := slices.BinarySearch(a.cwn, q); !inCwn && q != a.ID {
						if a.routeTo(q) == nil || a.own == nil {
							t.Errorf("node %d has no route to participant %d", node, q)
						}
						routed++
						break
					}
				}
			}
		}
	})
	r.ctrls[2].SetMode(magic.ModeDead) // unit 1 loses a node
	r.agents[2].Kill()
	r.agents[1].Trigger(magic.ReasonTimeout)
	r.run(t, 2*sim.Second, []int{0, 1, 3, 4, 5, 6, 7})
	if trees != 7 || probed != 7 || routed == 0 {
		t.Fatalf("%d nodes entered P4 with their barriers, tree and view built, %d ended P1 with probes and routes, %d routed outside cwn; want 7, 7 and some",
			trees, probed, routed)
	}
	for _, a := range r.agents {
		if p := a.Phase(); p != PhaseDone && p != PhaseShutdown {
			t.Fatalf("node %d ended in %v", a.ID, p)
		}
		if held := scratch(a); held != "" {
			t.Errorf("finished node %d (%v) holds scratch:%s", a.ID, a.Phase(), held)
		}
		// A late flush-done of its own epoch finds nothing to count.
		deliver(a, (a.ID+1)%len(r.agents), a.epoch)
		if held := scratch(a); held != "" {
			t.Errorf("a late flush-done at finished node %d rebuilt scratch:%s", a.ID, held)
		}
	}

	// A node that dies mid-P2 drops what it held.
	r = newRig(t, 2, 2, nil)
	a := r.agents[3]
	r.agents[0].Trigger(magic.ReasonTimeout)
	for a.Phase() != PhaseDissemination || a.snap == nil {
		if r.e.Now() > sim.Second {
			t.Fatalf("node 3 never shipped a round: %s", a.DebugString())
		}
		r.e.RunUntil(r.e.Now() + sim.Microsecond)
	}
	a.Kill()
	if held := scratch(a); held != "" {
		t.Fatalf("a node killed mid-P2 kept scratch:%s", held)
	}
}

// Every held machine keeps one Agent per node, so an Agent must stay in the
// 640-byte size class: objects with pointers above 512 bytes carry an
// 8-byte allocator header, and 640 bytes would take the 704-byte class, 64
// KiB more per 1 024-node machine. The view, trees and participants an
// Agent derives after P2 are one reference into the machine's memo.
func TestAgentFitsItsSizeClass(t *testing.T) {
	size := unsafe.Sizeof(Agent{})
	if size+8 > 640 {
		t.Fatalf("Agent is %d bytes; with its header it no longer fits the 640-byte size class", size)
	}
	t.Logf("Agent is %d bytes", size)
}

func TestTriggerIgnoredWhileRunningAndWhenDead(t *testing.T) {
	r := newRig(t, 2, 2, nil)
	a := r.agents[0]
	a.Trigger(magic.ReasonTimeout)
	ep := a.Epoch()
	a.Trigger(magic.ReasonNAKOverflow) // mid-recovery: ignored
	if a.Epoch() != ep {
		t.Fatal("mid-recovery trigger must not bump the epoch")
	}
	r.run(t, 2*sim.Second, []int{0, 1, 2, 3})
	// A fresh fault after completion starts a new epoch.
	a.Trigger(magic.ReasonTimeout)
	if a.Epoch() != ep+1 {
		t.Fatalf("post-completion trigger should bump epoch: %d", a.Epoch())
	}
	r.agents[1].Kill()
	r.agents[1].Trigger(magic.ReasonTimeout)
	if r.agents[1].Phase() != PhaseShutdown {
		t.Fatal("killed agent must not restart")
	}
}

// allUp returns a converged state in which every component of t is up.
func allUp(t *topology.Topology) *sysState {
	s := newSysState(t.Routers(), len(t.Links()))
	for i := 0; i < t.Routers(); i++ {
		s.setNode(i, triUp)
		s.setRouter(i, triUp)
	}
	for l := range t.Links() {
		s.setLink(l, triUp)
	}
	return s
}

// setParticipants fixes a's participant list by hand, as
// finishDissemination would, in an entry of its own.
func setParticipants(a *Agent, parts ...int) {
	set := coherence.NewNodeSet(a.Topo.Routers())
	for _, p := range parts {
		set.Add(p)
	}
	a.conv = &stateEntry{converged: true, parts: parts, partSet: set}
}

// P1 probes this node's links and, through a dead neighbour's router, that
// neighbour's links, so what it knows of nodes is what it reached: this
// node, its neighbours and a dead neighbour's — at most 2·degree+2 entries,
// not one per node of the machine. Every agent of a 16×8 mesh and of a
// 128-node hypercube with one node down ends P1 within that bound, and
// lists only nodes within two hops of it.
func TestP1ScratchHoldsOnlyReachedNodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		topo   *topology.Topology
		victim int
	}{
		{"mesh16x8", topology.NewMesh(16, 8), 72},
		{"hypercube128", topology.NewHypercube(7), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r *rig
			sum, most, agents := 0, 0, 0
			r = newRigOn(t, tc.topo, func(c *Config) {
				c.OnPhase = func(node int, p Phase) {
					if p != PhaseDissemination {
						return
					}
					a := r.agents[node]
					deg := tc.topo.Degree(node)
					if got := len(a.ep.nodes); got > 2*deg+2 {
						t.Errorf("node %d (degree %d) ended P1 knowing %d nodes, want <= %d", node, deg, got, 2*deg+2)
					}
					near := tc.topo.Adjacency(node)
					for _, ns := range a.ep.nodes {
						v := int(ns.id)
						ok := v == node
						for _, adj := range near {
							if adj.To == v || (adj.To == tc.victim && tc.topo.PortTo(tc.victim, v) >= 0) {
								ok = true
							}
						}
						if !ok {
							t.Errorf("node %d's P1 lists node %d, beyond its neighbours and the dead one's", node, v)
						}
					}
					sum += len(a.ep.nodes)
					most = max(most, len(a.ep.nodes))
					agents++
				}
			})
			r.ctrls[tc.victim].SetMode(magic.ModeDead)
			r.agents[tc.victim].Kill()
			r.agents[0].Trigger(magic.ReasonTimeout)
			var live []int
			for i := range r.agents {
				if i != tc.victim {
					live = append(live, i)
				}
			}
			r.run(t, 2*sim.Second, live)
			if agents != len(live) {
				t.Fatalf("%d agents reached P2, want %d", agents, len(live))
			}
			t.Logf("P1 knew %.1f nodes on average, %d at most, of %d", float64(sum)/float64(agents), most, tc.topo.Routers())
		})
	}
}
