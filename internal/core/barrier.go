package core

import (
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

type barrierState struct {
	name     string
	parent   int // participant node id, -1 at the root
	children []int
	upFrom   map[int]bool
	ready    bool
	dirty    bool
	released bool
	onDone   func(dirty bool)
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

// bftRoute returns the source route between two participants along BFT
// paths: up from the descendant through its ancestors.
func (a *Agent) bftRoute(from, to int) []int {
	// One of the endpoints is an ancestor of the other in the BFT (the
	// barrier only links participants to their nearest participant
	// ancestor). Build the path by walking parents from the descendant.
	walk := func(desc, anc int) []int {
		path := []int{desc}
		for r := desc; r != anc; {
			r = a.bft.Parent[r]
			if r < 0 {
				return nil
			}
			path = append(path, r)
		}
		return path
	}
	if p := walk(from, to); p != nil {
		return p
	}
	if p := walk(to, from); p != nil {
		return reverseRoute(p)
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

// startBarrier creates (or retrieves) the named barrier and replays any
// early messages that arrived before this node reached it.
func (a *Agent) startBarrier(name string, onDone func(dirty bool)) *barrierState {
	b := a.bars[name]
	if b == nil {
		t := a.barrierTree()
		b = &barrierState{
			name:     name,
			parent:   t.parent,
			children: t.children,
			upFrom:   map[int]bool{},
		}
		a.bars[name] = b
	}
	b.onDone = onDone
	for _, m := range a.pendingBar[name] {
		a.applyBarrierMsg(b, m)
	}
	delete(a.pendingBar, name)
	return b
}

// barrierReady marks this node's own arrival.
func (a *Agent) barrierReady(name string, dirty bool) {
	b := a.bars[name]
	if b == nil || b.ready {
		return
	}
	b.ready = true
	b.dirty = b.dirty || dirty
	a.tryBarrierAdvance(b)
}

// onBarrierMsg dispatches a barrier packet, buffering it if this node has
// not created the barrier yet.
func (a *Agent) onBarrierMsg(m *recMsg) {
	b := a.bars[m.Barrier]
	if b == nil {
		a.pendingBar[m.Barrier] = append(a.pendingBar[m.Barrier], m)
		return
	}
	a.applyBarrierMsg(b, m)
}

func (a *Agent) applyBarrierMsg(b *barrierState, m *recMsg) {
	switch m.Kind {
	case kBarrierUp:
		if !b.upFrom[m.From] {
			b.upFrom[m.From] = true
			b.dirty = b.dirty || m.Dirty
			a.tryBarrierAdvance(b)
		}
	case kBarrierDown:
		a.releaseBarrier(b, m.Dirty)
	}
}

// tryBarrierAdvance sends the up message (or releases, at the root) once
// this node and all its barrier children have arrived.
func (a *Agent) tryBarrierAdvance(b *barrierState) {
	if !b.ready || b.released {
		return
	}
	for _, ch := range b.children {
		if !b.upFrom[ch] {
			return
		}
	}
	a.execInstr(timing.InstrBarrierStep, func() {
		if b.released {
			return
		}
		if b.parent < 0 {
			a.releaseBarrier(b, b.dirty)
			return
		}
		a.sendRec(b.parent, a.barrierTree().up, interconnect.LaneRecoveryB,
			recMsg{Kind: kBarrierUp, Barrier: b.name, Dirty: b.dirty})
	})
}

// releaseBarrier completes the barrier locally and propagates the release
// to this node's barrier children.
func (a *Agent) releaseBarrier(b *barrierState, dirty bool) {
	if b.released {
		return
	}
	b.released = true
	if len(b.children) > 0 {
		t := a.barrierTree()
		a.broadcast(b.children, interconnect.LaneRecoveryB,
			&recMsg{Kind: kBarrierDown, Barrier: b.name, Dirty: dirty},
			func(i int) []int { return t.down[i] })
	}
	if b.onDone != nil {
		done := b.onDone
		a.execInstr(timing.InstrBarrierStep, func() { done(dirty) })
	}
}
