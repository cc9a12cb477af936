// Package core implements the paper's primary contribution: the distributed
// hardware-fault recovery algorithm of §4. One Agent runs per functioning
// node. After a Table 4.1 trigger, the agents execute four phases:
//
//	P1 recovery initiation    — drop the processor into recovery, diagnose
//	                            the immediate vicinity, determine the set of
//	                            closest working neighbors (cwn), and spread
//	                            a ping wave that drops every good node into
//	                            recovery (§4.2).
//	P2 information dissemination — neighbor gossip rounds merging link/node
//	                            state until every node knows the global
//	                            system state, terminated after 2h rounds
//	                            where h is the height of a breadth-first
//	                            tree rooted at a deterministically elected
//	                            node (§4.3).
//	P3 interconnect recovery  — isolate failed regions, drain stalled
//	                            traffic with a two-phase τ agreement, and
//	                            reprogram the routing tables deadlock-free
//	                            (§4.4).
//	P4 coherence recovery     — flush all caches home, barrier, sweep the
//	                            directories marking lost lines incoherent,
//	                            barrier, resume (§4.5).
//
// All local recovery computation is charged at the uncached-execution rate
// (the processor runs entirely from uncached space during recovery, §4.1),
// and all recovery communication uses the two dedicated virtual lanes with
// explicit source routes.
package core

import (
	"math/bits"
	"slices"

	"flashfc/internal/topology"
)

// tri is three-valued knowledge about a component: unknown, up, or down.
// Knowledge is monotone during one recovery epoch: down wins over up wins
// over unknown, so merging gossip is commutative, associative, idempotent.
type tri uint8

const (
	triUnknown tri = iota
	triUp
	triDown
)

// sysState is one node's current knowledge of the machine: per-node, per-
// router and per-link liveness. This is the (LState, NState) pair of §4.3
// with router state tracked separately because a dead node's router can
// still carry transit traffic.
//
// Entry i (nodes [0,n), routers [n,2n), links [2n,2n+l)) is bit i of two
// bitmaps sharing one allocation. The encoding is canonical — up is clear
// wherever down is set — so each tri has exactly one bit pattern, and a
// word changes under merge exactly when one of its entries' tri does.
type sysState struct {
	n, l     int
	up, down []uint64
}

// newSysState returns an all-unknown state.
func newSysState(nodes, links int) *sysState {
	w := (2*nodes + links + 63) / 64
	buf := make([]uint64, 2*w)
	return &sysState{n: nodes, l: links, up: buf[:w:w], down: buf[w:]}
}

func (s *sysState) clone() *sysState {
	c := newSysState(s.n, s.l)
	copy(c.up, s.up)
	copy(c.down, s.down)
	return c
}

// equal reports whether s and o hold the same knowledge: the encoding is
// canonical, so equal tris are equal bits.
func (s *sysState) equal(o *sysState) bool {
	return slices.Equal(s.up, o.up) && slices.Equal(s.down, o.down)
}

func (s *sysState) get(i int) tri {
	w, b := i>>6, uint64(1)<<(i&63)
	switch {
	case s.down[w]&b != 0:
		return triDown
	case s.up[w]&b != 0:
		return triUp
	}
	return triUnknown
}

// set stores v as entry i's knowledge outright (not a merge: P1's probe
// and ping verdicts overwrite).
func (s *sysState) set(i int, v tri) {
	w, b := i>>6, uint64(1)<<(i&63)
	s.up[w] &^= b
	s.down[w] &^= b
	switch v {
	case triUp:
		s.up[w] |= b
	case triDown:
		s.down[w] |= b
	}
}

func (s *sysState) node(i int) tri         { return s.get(i) }
func (s *sysState) router(r int) tri       { return s.get(s.n + r) }
func (s *sysState) link(l int) tri         { return s.get(2*s.n + l) }
func (s *sysState) setNode(i int, v tri)   { s.set(i, v) }
func (s *sysState) setRouter(r int, v tri) { s.set(s.n+r, v) }
func (s *sysState) setLink(l int, v tri)   { s.set(2*s.n+l, v) }

// merge folds other into s and reports whether anything changed: per word,
// down is the union and up the union minus down.
func (s *sysState) merge(other *sysState) bool {
	sd := s.down
	su, od, ou := s.up[:len(sd)], other.down[:len(sd)], other.up[:len(sd)]
	changed := false
	for i := range sd {
		d := sd[i] | od[i]
		u := (su[i] | ou[i]) &^ d
		if d != sd[i] || u != su[i] {
			sd[i], su[i] = d, u
			changed = true
		}
	}
	return changed
}

// words is the serialized size of the state in 32-bit words, used to charge
// gossip marshaling cost and packet serialization: one word per entry (the
// firmware ships its state arrays as-is) plus a header. It counts entries,
// not the host's bitmap words, so the simulated charge is independent of
// how the host stores the state.
func (s *sysState) words() int {
	return 2*s.n + s.l + 4
}

// viewInto makes v a view of t holding the state's knowledge, reusing v's
// arrays. Unknown components are treated as down: by the time views are
// used (after dissemination stabilizes) everything reachable has been
// resolved, and anything still unknown is unreachable.
func (s *sysState) viewInto(v *topology.View, t *topology.Topology) {
	v.Reset(t)
	for r := range v.RouterUp {
		if s.router(r) != triUp {
			v.RouterUp[r] = false
		}
	}
	for l := range v.LinkUp {
		if s.link(l) != triUp {
			v.LinkUp[l] = false
		}
	}
}

// failedUnits reports, indexed by failure-unit id, which units of t contain
// a failed node, failed router, or failed intra-unit link. It is nil on a
// machine without failure units, where nothing reads it.
func (s *sysState) failedUnits(units []int, t *topology.Topology) []bool {
	if units == nil {
		return nil
	}
	out := make([]bool, slices.Max(units)+1)
	for i := 0; i < t.Routers(); i++ {
		if s.node(i) == triDown || s.router(i) == triDown {
			out[units[i]] = true
		}
	}
	for l, link := range t.Links() {
		if s.link(l) == triDown && units[link.A] == units[link.B] {
			out[units[link.A]] = true
		}
	}
	return out
}

// appendFunctioning appends the nodes known up to dst, ascending.
func (s *sysState) appendFunctioning(dst []int) []int {
	for w, word := range s.up {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= s.n {
				return dst
			}
			dst = append(dst, i)
		}
	}
	return dst
}
