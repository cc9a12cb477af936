package core

import (
	"fmt"
	"slices"

	"flashfc/internal/interconnect"
	"flashfc/internal/timing"
)

// Fault-tolerant barriers over the dissemination-phase BFT (§4.4, [6]).
// Arrivals converge up the tree; the root broadcasts the release down.
// A boolean "dirty" flag is OR-aggregated on the way up, which is how the
// drain agreement's second phase requests a restart.
//
// The barrier tree spans the participants; its edges may transit routers of
// dead nodes, so messages carry explicit source routes along BFT paths.

// barrierKind names one of an epoch's barriers; what the node does once it
// is released is fixed by its kind (barrierPassed).
type barrierKind uint8

const (
	barDrainVote    barrierKind = iota // drain τ vote (§4.4); a single-phase drain has no other
	barDrainConfirm                    // two-phase drain, confirm
	barP3Post                          // tables reprogrammed
	// barP4Mode opens P4: every controller is in flush mode (§4.5), which
	// here is the drain mode it entered recovery in (magic.ModeDrain), so
	// the barrier changes no mode. It stays for the paper's algorithm,
	// whose timing (Fig 5.5, 5.6) includes it.
	barP4Mode
	barP4Done // directories swept
)

// barrierKey names a barrier within an epoch; only the two-phase drain's
// carry an attempt number.
type barrierKey struct {
	kind    barrierKind
	attempt int
}

func (k barrierKey) String() string {
	switch k.kind {
	case barDrainVote:
		return fmt.Sprintf("drain-a#%d", k.attempt)
	case barDrainConfirm:
		return fmt.Sprintf("drain-b#%d", k.attempt)
	case barP3Post:
		return "p3-post"
	case barP4Mode:
		return "p4-mode"
	default:
		return "p4-done"
	}
}

// barriersPerEpoch sizes the epoch's barrier list: the five of a recovery
// whose drain passes at its first attempt, and one drain restart.
const barriersPerEpoch = 7

// barrierState is one barrier at this node. Messages may beat the node to
// it: the state then exists, unstarted, holding them in pending.
type barrierState struct {
	key      barrierKey
	started  bool // this node reached the barrier: parent and children are set
	parent   int  // participant node id, -1 at the root
	children []int
	upFrom   []bool // upFrom[i]: children[i] has arrived
	// strays are arrivals from nodes that are not children here (a sender
	// whose view disagrees); each still ORs in its dirty flag once.
	strays    []int
	pending   []recMsg
	ready     bool
	dirty     bool
	released  bool
	doneDirty bool // the release's flag, for the continuation
}

// markUp records from's arrival and reports whether it is new.
func (b *barrierState) markUp(from int) bool {
	if i := slices.Index(b.children, from); i >= 0 {
		if b.upFrom[i] {
			return false
		}
		b.upFrom[i] = true
		return true
	}
	if slices.Contains(b.strays, from) {
		return false
	}
	b.strays = append(b.strays, from)
	return true
}

// ups counts the arrivals recorded.
func (b *barrierState) ups() int {
	n := len(b.strays)
	for _, up := range b.upFrom {
		if up {
			n++
		}
	}
	return n
}

// barrierParent returns the nearest BFT ancestor of node v whose node is a
// participant (the root returns -1).
func (a *Agent) barrierParent(v int) int {
	for r := a.bft.Parent[v]; r >= 0; r = a.bft.Parent[r] {
		if a.partSet[r] {
			return r
		}
	}
	if v == a.root {
		return -1
	}
	return a.root
}

// barrierChildren lists participants whose barrierParent is v.
func (a *Agent) barrierChildren(v int) []int {
	var out []int
	for _, p := range a.participants {
		if p != v && a.barrierParent(p) == v {
			out = append(out, p)
		}
	}
	return out
}

// bftPath returns the route from desc up the BFT to its ancestor anc,
// carved, or nil if anc is not an ancestor of desc.
func (a *Agent) bftPath(desc, anc int) []int {
	n := 1
	for r := desc; r != anc; n++ {
		if r = a.bft.Parent[r]; r < 0 {
			return nil
		}
	}
	path := a.carve(n)
	for i, r := 0, desc; i < n; i++ {
		path[i] = r
		r = a.bft.Parent[r]
	}
	return path
}

// bftRoute returns the source route between two participants along BFT
// paths: up from the descendant through its ancestors. One of the
// endpoints is an ancestor of the other (the barrier only links
// participants to their nearest participant ancestor).
func (a *Agent) bftRoute(from, to int) []int {
	if p := a.bftPath(from, to); p != nil {
		return p
	}
	if p := a.bftPath(to, from); p != nil {
		slices.Reverse(p)
		return p
	}
	return a.routeTo(to)
}

// barrierTree is this node's place in the epoch's barrier tree: its parent
// and children, and the source routes to each along the BFT. Every barrier
// of an epoch runs over the same tree, so it is built once, on the first.
type barrierTree struct {
	parent   int // -1 at the root
	children []int
	up       []int   // route to parent
	down     [][]int // down[i]: route to children[i]
}

// barrierTree returns the epoch's tree, building it on first use.
func (a *Agent) barrierTree() *barrierTree {
	if a.tree != nil {
		return a.tree
	}
	t := &barrierTree{parent: a.barrierParent(a.ID), children: a.barrierChildren(a.ID)}
	if t.parent >= 0 {
		t.up = a.bftRoute(a.ID, t.parent)
	}
	t.down = make([][]int, len(t.children))
	for i, ch := range t.children {
		t.down[i] = a.bftRoute(a.ID, ch)
	}
	a.tree = t
	return t
}

// barrier returns the index of key's barrier in a.ep.bars, creating it
// unstarted if no message or start has named it yet.
func (a *Agent) barrier(key barrierKey) int {
	for i := range a.ep.bars {
		if a.ep.bars[i].key == key {
			return i
		}
	}
	if a.ep.bars == nil {
		a.ep.bars = make([]barrierState, 0, barriersPerEpoch)
	}
	a.ep.bars = append(a.ep.bars, barrierState{key: key})
	return len(a.ep.bars) - 1
}

// startBarrier starts key's barrier at this node, replays any early
// messages that arrived before this node reached it, and returns its index.
func (a *Agent) startBarrier(key barrierKey) int {
	i := a.barrier(key)
	t := a.barrierTree()
	b := &a.ep.bars[i]
	b.started = true
	b.parent, b.children = t.parent, t.children
	if len(t.children) > 0 {
		b.upFrom = make([]bool, len(t.children))
	}
	pending := b.pending
	b.pending = nil
	for k := range pending {
		a.applyBarrierMsg(i, &pending[k])
	}
	return i
}

// barrierReady marks this node's own arrival at barrier i.
func (a *Agent) barrierReady(i int, dirty bool) {
	b := &a.ep.bars[i]
	if b.ready {
		return
	}
	b.ready = true
	b.dirty = b.dirty || dirty
	a.tryBarrierAdvance(i)
}

// onBarrierMsg dispatches a barrier packet, buffering it if this node has
// not started the barrier yet. A finished agent (its scratch gone) has
// released every barrier it started and will start no other: the message
// has nothing to do.
func (a *Agent) onBarrierMsg(m *recMsg) {
	if a.ep == nil {
		return
	}
	i := a.barrier(m.Barrier)
	if b := &a.ep.bars[i]; !b.started {
		b.pending = append(b.pending, *m)
		return
	}
	a.applyBarrierMsg(i, m)
}

func (a *Agent) applyBarrierMsg(i int, m *recMsg) {
	switch m.Kind {
	case kBarrierUp:
		if b := &a.ep.bars[i]; b.markUp(m.From) {
			b.dirty = b.dirty || m.Dirty
			a.tryBarrierAdvance(i)
		}
	case kBarrierDown:
		a.releaseBarrier(i, m.Dirty)
	}
}

// tryBarrierAdvance sends the up message (or releases, at the root) once
// this node and all its barrier children have arrived.
func (a *Agent) tryBarrierAdvance(i int) {
	b := &a.ep.bars[i]
	if !b.ready || b.released || slices.Contains(b.upFrom, false) {
		return
	}
	a.execArg(timing.InstrBarrierStep, barrierStepped, i)
}

// barrierStepped is tryBarrierAdvance's charged step.
func barrierStepped(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if !a.current(u) {
		return
	}
	i := int(uint32(u))
	b := &a.ep.bars[i]
	if b.released {
		return
	}
	if b.parent < 0 {
		a.releaseBarrier(i, b.dirty)
		return
	}
	a.sendRec(b.parent, a.barrierTree().up, interconnect.LaneRecoveryB,
		recMsg{Kind: kBarrierUp, Barrier: b.key, Dirty: b.dirty})
}

// releaseBarrier completes the barrier locally and propagates the release
// to this node's barrier children.
func (a *Agent) releaseBarrier(i int, dirty bool) {
	b := &a.ep.bars[i]
	if b.released {
		return
	}
	b.released = true
	if len(b.children) > 0 {
		t := a.barrierTree()
		a.broadcast(b.children, interconnect.LaneRecoveryB,
			recMsg{Kind: kBarrierDown, Barrier: b.key, Dirty: dirty},
			func(i int) []int { return t.down[i] })
	}
	b.doneDirty = dirty
	a.execArg(timing.InstrBarrierStep, barrierDone, i)
}

// barrierDone runs a released barrier's continuation once its step is
// charged.
func barrierDone(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if !a.current(u) {
		return
	}
	b := &a.ep.bars[uint32(u)]
	a.barrierPassed(b.key, b.doneDirty)
}

// barrierPassed continues the recovery past a released barrier.
func (a *Agent) barrierPassed(key barrierKey, dirty bool) {
	switch key.kind {
	case barDrainVote:
		a.drainVoted(key.attempt)
	case barDrainConfirm:
		a.drainConfirmed(key.attempt, dirty)
	case barP3Post:
		a.routesInstalled()
	case barP4Mode:
		a.doFlush()
	case barP4Done:
		a.finishRecovery()
	}
}

// passBarrier starts key's barrier and marks this node arrived, clean.
func (a *Agent) passBarrier(key barrierKey) {
	a.barrierReady(a.startBarrier(key), false)
}
