package core

import (
	"flashfc/internal/coherence"
	"flashfc/internal/routing"
	"flashfc/internal/topology"
)

// memoSize bounds the memo. One machine holds one distinct converged state
// per epoch in the common case — every participant ends P2 with the same
// knowledge — and briefly two while an epoch restart overlaps the previous
// one or a split component recovers beside the majority; four leaves slack
// for both at once without growing with the machine.
const memoSize = 4

// Memo is one machine's memo of everything the recovery agents derive from
// a system state (§4.3): the view, the P2 termination bound, the final
// breadth-first tree and participants, the failed failure units and the P3
// table repair (§4.4). Every functioning node ends P2 with the same state
// and derives the same results from it; the simulator charges each of them
// for that work in simulated time but needs the results on the host only
// once.
//
// An entry is keyed by the exact bits of the state an agent looked it up
// with. The encoding is canonical (sysState), so element-wise equality of
// the up and down words is equality of knowledge, with no hash and so no
// collision that could hand an agent another state's tables. Each of an
// entry's results is computed by the first agent to ask for it and is
// read-only after that: callers must not write to a view, tree, list, set
// or repair the memo hands out (Network.SetRouterTable copies the row it
// installs).
//
// It is host-side cache, not simulated state: it is never snapshotted, and
// every machine — cold-built or forked — owns a fresh one, so forks running
// on parallel campaign workers share nothing. It needs no lock: the agents of
// one machine run on one goroutine, because recovery never runs on a
// partitioned machine (DESIGN.md §7). It serves the agents of one machine,
// which share a topology and failure units.
type Memo struct {
	entries []*stateEntry
	next    int // round-robin victim once full

	// Lookups and Misses count state lookups and the entries they opened;
	// Views and Trees the views and breadth-first trees computed;
	// RepairLookups and Repairs the P3 repairs asked for and computed. For
	// tests and the hit rates DESIGN.md reports.
	Lookups, Misses        int
	Views, Trees           int
	RepairLookups, Repairs int
}

// stateEntry is what the memo knows of one state. Its fields past the key
// are filled on first use.
type stateEntry struct {
	m    *Memo
	st   *sysState // the key: a private copy
	topo *topology.Topology

	view  *topology.View
	trees []*topology.BFT // by root: the bound's and the final tree
	bound int             // the P2 termination bound, 0 until computed

	// The converged view's derivations (converge): the root, the first
	// functioning node (-1: none); its tree; the participants, the
	// functioning nodes the tree reaches, ascending, and as a set.
	converged bool
	root      int
	bft       *topology.BFT
	parts     []int
	partSet   coherence.NodeSet

	failed     []bool // failedUnits' answer, once failedDone
	failedDone bool
	repairs    []stateRepair
}

type stateRepair struct {
	strat routing.Strategy
	rep   routing.Repair
}

// NewMemo returns an empty memo for one machine's agents to share.
func NewMemo() *Memo { return &Memo{} }

// lookup returns st's entry, opening one with a private copy of st on a
// miss.
func (m *Memo) lookup(st *sysState, topo *topology.Topology) *stateEntry {
	m.Lookups++
	for _, e := range m.entries {
		if e.st.equal(st) {
			return e
		}
	}
	m.Misses++
	e := &stateEntry{m: m, st: st.clone(), topo: topo}
	if len(m.entries) < memoSize {
		m.entries = append(m.entries, e)
	} else {
		m.entries[m.next] = e
		m.next = (m.next + 1) % memoSize
	}
	return e
}

// viewOf returns the state's view (sysState.viewInto).
func (e *stateEntry) viewOf() *topology.View {
	if e.view == nil {
		e.view = &topology.View{}
		e.st.viewInto(e.view, e.topo)
		e.m.Views++
	}
	return e.view
}

// tree returns the view's breadth-first tree rooted at root.
func (e *stateEntry) tree(root int) *topology.BFT {
	for _, b := range e.trees {
		if b.Root == root {
			return b
		}
	}
	b := e.viewOf().BFS(root)
	e.trees = append(e.trees, b)
	e.m.Trees++
	return b
}

// termination returns P2's termination bound (§4.3): twice the height of
// the tree rooted at the view's elected root, at least 1.
func (e *stateEntry) termination() int {
	if e.bound == 0 {
		e.bound = 1
		if root := e.viewOf().ElectRoot(); root >= 0 {
			e.bound = max(1, 2*e.tree(root).Height)
		}
	}
	return e.bound
}

// converge fixes the root, its tree and the participants: the functioning
// nodes reachable from the root. The algorithm assumes no split brain
// (§4.2).
func (e *stateEntry) converge() {
	if e.converged {
		return
	}
	e.converged = true
	functioning := e.st.appendFunctioning(nil)
	e.root = -1
	if len(functioning) == 0 {
		return
	}
	e.root = functioning[0]
	e.bft = e.tree(e.root)
	e.partSet = coherence.NewNodeSet(e.st.n)
	e.parts = functioning[:0]
	for _, n := range functioning {
		if e.bft.Dist[n] >= 0 {
			e.parts = append(e.parts, n)
			e.partSet.Add(n)
		}
	}
}

// failedUnits reports, indexed by failure-unit id, which units contain a
// failed node, failed router, or failed intra-unit link. It is nil on a
// machine without failure units, where nothing reads it.
func (e *stateEntry) failedUnits(units []int) []bool {
	if !e.failedDone {
		e.failedDone = true
		e.failed = e.st.failedUnits(units, e.topo)
	}
	return e.failed
}

// repair returns strat's repair of the converged view and tree.
func (e *stateEntry) repair(strat routing.Strategy) routing.Repair {
	e.m.RepairLookups++
	for _, r := range e.repairs {
		if r.strat == strat {
			return r.rep
		}
	}
	e.converge()
	e.m.Repairs++
	rep := strat.RepairTables(e.viewOf(), e.bft)
	e.repairs = append(e.repairs, stateRepair{strat, rep})
	return rep
}
