package routing

import "flashfc/internal/topology"

// Paper is the paper's policy: dimension-order/e-cube pristine routing, a
// full two-phase τ drain, and a complete up*/down* rewrite of every live
// router's row on the surviving graph (§4.4).
var Paper Strategy = paperStrategy{}

// Incremental patches only the table entries whose pristine route crosses a
// dead link or router, taking the patched values from the up*/down* tables,
// behind a single-phase drain. Routes the fault never touched keep their
// pristine (minimal) paths and cost nothing to reprogram.
var Incremental Strategy = incrementalStrategy{}

// Adaptive is fault-region-aware rerouting without a drain: broken entries
// are repaired with up*/down* routes computed on a view that additionally
// avoids the links internal to the fault region (the dead elements and
// their surrounding ring), steering repaired traffic around the
// neighborhood of the fault rather than along its edge. Tables change under
// live traffic; in-flight packets reroute mid-journey or are dropped.
var Adaptive Strategy = adaptiveStrategy{}

func init() {
	Register(Paper)
	Register(Incremental)
	Register(Adaptive)
}

type paperStrategy struct{}

func (paperStrategy) Name() string { return "paper" }

func (paperStrategy) Drain() DrainKind { return DrainFull }

func (paperStrategy) RepairTables(v *topology.View, bft *topology.BFT) Repair {
	n := v.T.Routers()
	per := make([]int, n)
	for r := range per {
		per[r] = n // full row rewrite, the paper's charge model
	}
	return Repair{Tables: topology.UpDownTables(v, bft), PatchedPerRouter: per}
}

type incrementalStrategy struct{}

func (incrementalStrategy) Name() string { return "incremental" }

func (incrementalStrategy) Drain() DrainKind { return DrainPartial }

func (incrementalStrategy) RepairTables(v *topology.View, bft *topology.BFT) Repair {
	return patchBroken(v, bft, topology.UpDownTables(v, bft))
}

type adaptiveStrategy struct{}

func (adaptiveStrategy) Name() string { return "adaptive" }

func (adaptiveStrategy) Drain() DrainKind { return DrainNone }

func (adaptiveStrategy) RepairTables(v *topology.View, bft *topology.BFT) Repair {
	donor, orient := topology.UpDownTables(v, bft), bft
	if avoid := avoidRegionView(v); avoid != nil {
		if root := avoid.ElectRoot(); root >= 0 {
			abft := avoid.BFS(root)
			aud := topology.UpDownTables(avoid, abft)
			if coversPairs(bft, aud) {
				donor, orient = aud, abft
			}
		}
	}
	return patchBroken(v, orient, donor)
}

// brokenEntries reports, per live (router, destination) pair, whether the
// pristine route dead-ends: its walk crosses a dead link or router before
// reaching the destination. Entries toward dead destinations count as
// broken (the repair invalidates them). The pristine next-hop pointers for
// one destination form a functional graph, so each destination costs one
// memoized sweep.
func brokenEntries(v *topology.View, pristine topology.Tables) [][]bool {
	n := v.T.Routers()
	broken := make([][]bool, n)
	for r := range broken {
		broken[r] = make([]bool, n)
	}
	const (
		unknown = iota
		ok
		bad
		walking
	)
	state := make([]int, n)
	var path []int
	for d := 0; d < n; d++ {
		if !v.RouterUp[d] {
			for r := 0; r < n; r++ {
				if v.RouterUp[r] {
					broken[r][d] = true
				}
			}
			continue
		}
		for i := range state {
			state[i] = unknown
		}
		state[d] = ok
		for r := 0; r < n; r++ {
			if !v.RouterUp[r] || state[r] != unknown {
				continue
			}
			path = path[:0]
			cur, verdict := r, unknown
			for verdict == unknown {
				switch state[cur] {
				case ok, bad:
					verdict = state[cur]
					continue
				case walking:
					verdict = bad // pointer loop: certainly broken
					continue
				}
				state[cur] = walking
				path = append(path, cur)
				p := pristine[cur][d]
				if p < 0 {
					verdict = bad
					continue
				}
				a := v.T.Adjacency(cur)[p]
				if !v.Usable(cur, a) {
					verdict = bad
					continue
				}
				cur = a.To
			}
			for _, q := range path {
				state[q] = verdict
				if verdict == bad {
					broken[q][d] = true
				}
			}
		}
	}
	return broken
}

// patchBroken rewrites the broken pristine entries with the donor tables'
// values, then drives the mix to deadlock freedom. Intact entries form
// closed suffixes (the pristine walk from any router on an intact route is
// itself intact), so a repaired route is a donor prefix followed by a
// pristine suffix and always terminates. Deadlock freedom is restored by a
// fixpoint: any used turn that enters a router on a down channel and leaves
// on an up channel (under orient, the orientation the donor routes by) has
// both its entries patched to the donor. At the fixpoint no route ever
// turns down→up, which makes the channel-dependency graph acyclic by the
// up*/down* ordering argument — up-traversals strictly decrease the
// (level, id) potential, down-traversals increase it, and no edge returns
// from the down class to the up class. Every patch moves an entry
// irrevocably to its donor value, so the fixpoint terminates at worst at
// the pure donor tables. A final dependency check guards the argument; a
// residual cycle (possible only in orientation corner cases on split
// views) falls back to the full donor rewrite.
func patchBroken(v *topology.View, orient *topology.BFT, donor topology.Tables) Repair {
	t := v.T
	n := t.Routers()
	if orient == nil {
		return fullRepair(n, donor, false)
	}
	// DefaultTables builds a fresh table set, so once the broken entries
	// are known it is patched in place.
	tb := topology.DefaultTables(t)
	broken := brokenEntries(v, tb)
	per := make([]int, n)
	isDonor := make([][]bool, n)
	for r := 0; r < n; r++ {
		isDonor[r] = make([]bool, n)
	}
	patch := func(r, d int) bool {
		if isDonor[r][d] {
			return false
		}
		isDonor[r][d] = true
		if tb[r][d] != donor[r][d] {
			tb[r][d] = donor[r][d]
			per[r]++
		}
		return true
	}
	for r := 0; r < n; r++ {
		if !v.RouterUp[r] {
			continue
		}
		for d := 0; d < n; d++ {
			if d != r && broken[r][d] {
				patch(r, d)
			}
		}
	}
	// A minimal patch often suffices (it always does when nothing broke).
	// When the mix deadlocks, drive it down→up-free; if even that leaves a
	// cycle (orientation corner cases on split views), install the donor.
	if !tb.DependencyAcyclic(v) {
		downUpFixpoint(v, orient, donor, tb, patch)
		if !tb.DependencyAcyclic(v) {
			return fullRepair(n, donor, true)
		}
	}
	return Repair{Tables: tb, PatchedPerRouter: per}
}

// downUpFixpoint patches every used down→up turn's entries to the donor
// until none remain. Each patch moves an entry irrevocably to its donor
// value, so the loop terminates, at worst at the pure donor tables.
func downUpFixpoint(v *topology.View, orient *topology.BFT, donor, tb topology.Tables, patch func(r, d int) bool) {
	t := v.T
	n := t.Routers()
	for changed := true; changed; {
		changed = false
		for r := 0; r < n; r++ {
			if !v.RouterUp[r] {
				continue
			}
			adjR := t.Adjacency(r)
			for d := 0; d < n; d++ {
				pOut := tb[r][d]
				if d == r || pOut < 0 {
					continue
				}
				out := adjR[pOut]
				if !v.Usable(r, out) || !orient.UpTraversal(r, out) {
					continue // only an up out-hop can complete a down→up turn
				}
				for _, a := range adjR {
					q := a.To
					if !v.Usable(r, a) {
						continue
					}
					pq := tb[q][d]
					if pq < 0 || t.Adjacency(q)[pq].To != r {
						continue // q does not route d through r
					}
					if orient.UpTraversal(q, t.Adjacency(q)[pq]) {
						continue // q→r is up; up→up and up→down are safe
					}
					patchedOut := patch(r, d)
					if patch(q, d) || patchedOut {
						changed = true
					}
					if patchedOut {
						break // (r,d)'s out-hop changed; recheck next sweep
					}
				}
			}
		}
	}
}

// fullRepair is the complete donor rewrite — the paper's charge model.
func fullRepair(n int, donor topology.Tables, fallback bool) Repair {
	per := make([]int, n)
	for r := range per {
		per[r] = n
	}
	return Repair{Tables: donor, PatchedPerRouter: per, Fallback: fallback}
}

// avoidRegionView returns v with the links internal to the fault region —
// links both of whose endpoints are dead or adjacent to a dead element —
// additionally failed, or nil when the view has no faults. Live routers
// inside the region keep their links to the outside, so they stay
// deliverable; only the region-internal shortcuts are shed.
func avoidRegionView(v *topology.View) *topology.View {
	t := v.T
	region := make([]bool, t.Routers())
	faulty := false
	for r, up := range v.RouterUp {
		if !up {
			region[r] = true
			faulty = true
		}
	}
	for i, l := range t.Links() {
		if !v.LinkUp[i] {
			region[l.A] = true
			region[l.B] = true
			faulty = true
		}
	}
	if !faulty {
		return nil
	}
	avoid := v.Clone()
	for i, l := range t.Links() {
		if region[l.A] && region[l.B] {
			avoid.LinkUp[i] = false
		}
	}
	return avoid
}

// coversPairs reports whether tb reaches every ordered pair the
// dissemination BFT spans — the test that region avoidance did not strand
// anyone the plain up*/down* repair would serve.
func coversPairs(bft *topology.BFT, tb topology.Tables) bool {
	for r, dr := range bft.Dist {
		if dr < 0 {
			continue
		}
		for d, dd := range bft.Dist {
			if dd < 0 || d == r {
				continue
			}
			if tb[r][d] < 0 {
				return false
			}
		}
	}
	return true
}
