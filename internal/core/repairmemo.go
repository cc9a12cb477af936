package core

import (
	"slices"

	"flashfc/internal/routing"
	"flashfc/internal/topology"
)

// repairMemoSize bounds the memo. One machine holds one distinct
// (view, BFT) per epoch in the common case — every participant ends P2 with
// the same converged view — and briefly two while an epoch restart overlaps
// the previous one or a split component recovers beside the majority; four
// leaves slack for both at once without growing with the machine.
const repairMemoSize = 4

// RepairMemo is one machine's content-keyed memo of the P3 table repair
// (§4.4). Every functioning node ends P2 with the same view and computes the
// same deadlock-free tables from it; the simulator charges each of them for
// that work in simulated time but needs the result on the host only once.
// The first agent to reach reprogramRoutes with a given (strategy, view, BFT)
// computes the repair, every later agent whose key is exactly equal —
// element-wise over RouterUp, LinkUp, the BFT root and Dist, no hash, so no
// collision can hand an agent a wrong table — shares the read-only result,
// and an agent that disagrees (split component, epoch restart on a new view)
// misses and computes its own.
//
// It is host-side cache, not simulated state: it is never snapshotted, and
// every machine — cold-built or forked — owns a fresh one, so forks running
// on parallel campaign workers share nothing. It needs no lock: the agents of
// one machine run on one goroutine, because recovery never runs on a
// partitioned machine (DESIGN.md §7).
type RepairMemo struct {
	entries []repairEntry
	next    int // round-robin victim once full

	// Lookups and Misses count calls to lookup and the repairs it actually
	// computed, for tests and the hit rates DESIGN.md reports.
	Lookups, Misses int
}

type repairEntry struct {
	strat routing.Strategy
	view  *topology.View // private copy
	root  int
	dist  []int // private copy
	rep   routing.Repair
}

// NewRepairMemo returns an empty memo for one machine's agents to share.
func NewRepairMemo() *RepairMemo { return &RepairMemo{} }

// lookup returns strat's repair of (v, bft), computing it on a miss. The
// result is shared: callers must not write to it (Network.SetRouterTable
// copies the row it installs).
func (m *RepairMemo) lookup(strat routing.Strategy, v *topology.View, bft *topology.BFT) routing.Repair {
	m.Lookups++
	for i := range m.entries {
		e := &m.entries[i]
		if e.strat == strat && e.root == bft.Root &&
			slices.Equal(e.view.RouterUp, v.RouterUp) && slices.Equal(e.view.LinkUp, v.LinkUp) &&
			slices.Equal(e.dist, bft.Dist) {
			return e.rep
		}
	}
	m.Misses++
	e := repairEntry{
		strat: strat,
		view:  v.Clone(),
		root:  bft.Root,
		dist:  slices.Clone(bft.Dist),
		rep:   strat.RepairTables(v, bft),
	}
	if len(m.entries) < repairMemoSize {
		m.entries = append(m.entries, e)
	} else {
		m.entries[m.next] = e
		m.next = (m.next + 1) % repairMemoSize
	}
	return e.rep
}
