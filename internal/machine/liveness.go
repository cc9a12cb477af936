package machine

import (
	"flashfc/internal/core"
	"flashfc/internal/topology"
)

// Liveness is the machine's one answer to "who is alive": the harness's
// ground truth (which controllers, routers, links and memory banks work,
// as injected, whatever the recovery algorithm discovers) and the current
// recovery round's reports. Ground truth changes only through the
// fault.Target methods, which recompute the survivors once per fault; the
// round's outcome changes only as reports arrive.
type Liveness struct {
	fabric  *topology.View // routers and links actually up
	node    []nodeState
	main    []int // survivors, in id order; replaced, never rewritten
	faults  int   // fault.Target calls applied
	waiting int   // survivors that have not reported this round
	reports map[int]*core.Report
}

// nodeState is one node's ground truth and its report this round.
type nodeState uint8

const (
	ctrlDead  nodeState = 1 << iota // controller killed or wedged
	memServes                       // processor died; memory bank still served
	survivor                        // in the main surviving component
	reported                        // reported this round
	removed                         // this round shut it down or isolated it
)

// newLiveness returns the view of a whole machine: every node a survivor.
func newLiveness(topo *topology.Topology, nodes int) *Liveness {
	l := &Liveness{
		fabric:  topology.NewView(topo),
		node:    make([]nodeState, nodes),
		main:    make([]int, nodes),
		waiting: nodes,
		reports: map[int]*core.Report{},
	}
	for i := range l.node {
		l.node[i] = survivor
		l.main[i] = i
	}
	return l
}

// Liveness returns the machine's liveness view.
func (m *Machine) Liveness() *Liveness { return m.live }

// Survivors is m.Liveness().Survivors().
func (m *Machine) Survivors() []int { return m.live.main }

// Reports returns the current recovery round's reports by node.
func (m *Machine) Reports() map[int]*core.Report { return m.live.reports }

// RoutingAcyclic verifies deadlock freedom of the installed tables: their
// channel-dependency graph on the true surviving topology must be acyclic.
// The routing experiments check it after every recovery, per strategy.
func (m *Machine) RoutingAcyclic() bool {
	return m.InstalledTables().DependencyAcyclic(m.live.fabric)
}

func (l *Liveness) is(n int, s nodeState) bool { return l.node[n]&s != 0 }

// Survivors returns the ids of nodes whose controller is functioning, whose
// router works, and which sit in the largest surviving component (the "main
// machine" after a partition; ties go to the component with the lowest
// id). The slice is shared: callers must not modify it.
func (l *Liveness) Survivors() []int { return l.main }

// Survivor reports whether node n is in Survivors.
func (l *Liveness) Survivor(n int) bool { return l.is(n, survivor) }

// MemServes reports whether node n is a CPU-failed node whose MAGIC and
// memory/directory bank still serve coherence traffic: dead for recovery
// participation, but still addressable as a home.
func (l *Liveness) MemServes(n int) bool { return l.is(n, memServes) }

// Live reports whether node n is still in the machine: a survivor that the
// current recovery round did not shut down or isolate. Its cache holds
// state the machine must keep coherent.
func (l *Liveness) Live(n int) bool { return l.node[n]&(survivor|removed) == survivor }

// HomeServes reports whether the lines homed on node h are still served:
// h is live, or its memory bank outlived its processor. A survivor's node
// map agrees once recovery completes; the verify sweep holds such a home
// to live-home standards.
func (l *Liveness) HomeServes(h int) bool { return l.Live(h) || l.MemServes(h) }

// Healthy reports whether node n reported back from the current recovery
// round without shutting down or isolating itself: its processor resumes.
func (l *Liveness) Healthy(n int) bool { return l.node[n]&(reported|removed) == reported }

// Affected counts the nodes the fault cost the machine once recovery
// completed: every node that did not report back healthy.
func (l *Liveness) Affected() int {
	n := len(l.node)
	for i := range l.node {
		if l.Healthy(i) {
			n--
		}
	}
	return n
}

// Faults reports how many faults have been applied to the machine.
func (l *Liveness) Faults() int { return l.faults }

// cutOff reports whether node n has a working controller outside the main
// component: it cannot return the exclusive lines it holds.
func (l *Liveness) cutOff(n int) bool { return l.node[n]&(ctrlDead|survivor) == 0 }

// kill records that node n lost what s names.
func (l *Liveness) kill(n int, s nodeState) { l.node[n] |= s }

func (l *Liveness) failRouter(r int) { l.fabric.FailRouter(r) }

func (l *Liveness) failLink(k int) { l.fabric.FailLink(k) }

// applyFault closes one fault.Target call: it recomputes the survivors
// from ground truth and opens a fresh recovery round that waits for each of
// them (doomed unit members included: they report with ShutDown set).
func (l *Liveness) applyFault() {
	l.faults++
	alive := func(j int) bool { return !l.is(j, ctrlDead) && l.fabric.RouterUp[j] }
	// Components are searched from the lowest unplaced live id, so a tie
	// keeps the one found first.
	placed := make([]bool, len(l.node))
	l.main = nil
	for i := range l.node {
		if !alive(i) || placed[i] {
			continue
		}
		b := l.fabric.BFS(i)
		var comp []int
		for j := range l.node {
			if alive(j) && b.Dist[j] >= 0 {
				comp = append(comp, j)
				placed[j] = true
			}
		}
		if len(comp) > len(l.main) {
			l.main = comp
		}
	}
	for i := range l.node {
		l.node[i] &^= survivor
	}
	for _, j := range l.main {
		l.node[j] |= survivor
	}
	l.newRound()
}

// newRound forgets the reports of the previous recovery round.
func (l *Liveness) newRound() {
	clear(l.reports)
	for i := range l.node {
		l.node[i] &^= reported | removed
	}
	l.waiting = len(l.main)
}

// report records node r.Node's recovery report for this round and says
// whether every survivor has now reported.
func (l *Liveness) report(r *core.Report) bool {
	n := r.Node
	if l.node[n]&(survivor|reported) == survivor {
		l.waiting--
	}
	l.reports[n] = r
	l.node[n] = l.node[n]&^removed | reported
	if r.ShutDown || r.Isolated {
		l.node[n] |= removed
	}
	return l.waiting == 0
}
