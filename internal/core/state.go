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

func mergeTri(a, b tri) tri {
	if a == triDown || b == triDown {
		return triDown
	}
	if a == triUp || b == triUp {
		return triUp
	}
	return triUnknown
}

// sysState is one node's current knowledge of the machine: per-node, per-
// router and per-link liveness. This is the (LState, NState) pair of §4.3
// with router state tracked separately because a dead node's router can
// still carry transit traffic.
type sysState struct {
	Nodes   []tri
	Routers []tri
	Links   []tri
}

// newSysState backs the three arrays with one allocation.
func newSysState(nodes, links int) *sysState {
	buf := make([]tri, 2*nodes+links)
	return &sysState{
		Nodes:   buf[:nodes:nodes],
		Routers: buf[nodes : 2*nodes : 2*nodes],
		Links:   buf[2*nodes:],
	}
}

func (s *sysState) clone() *sysState {
	c := newSysState(len(s.Nodes), len(s.Links))
	copy(c.Nodes, s.Nodes)
	copy(c.Routers, s.Routers)
	copy(c.Links, s.Links)
	return c
}

// merge folds other into s and reports whether anything changed.
func (s *sysState) merge(other *sysState) bool {
	changed := false
	for i, v := range other.Nodes {
		if m := mergeTri(s.Nodes[i], v); m != s.Nodes[i] {
			s.Nodes[i] = m
			changed = true
		}
	}
	for i, v := range other.Routers {
		if m := mergeTri(s.Routers[i], v); m != s.Routers[i] {
			s.Routers[i] = m
			changed = true
		}
	}
	for i, v := range other.Links {
		if m := mergeTri(s.Links[i], v); m != s.Links[i] {
			s.Links[i] = m
			changed = true
		}
	}
	return changed
}

// words is the serialized size of the state in 32-bit words, used to charge
// gossip marshaling cost and packet serialization: one word per entry (the
// firmware ships its state arrays as-is) plus a header.
func (s *sysState) words() int {
	return len(s.Nodes) + len(s.Routers) + len(s.Links) + 4
}

// view converts the state into a topology.View for graph computations.
// Unknown components are treated as down: by the time views are used (after
// dissemination stabilizes) everything reachable has been resolved, and
// anything still unknown is unreachable.
func (s *sysState) view(t *topology.Topology) *topology.View {
	v := topology.NewView(t)
	for r, st := range s.Routers {
		if st != triUp {
			v.RouterUp[r] = false
		}
	}
	for l, st := range s.Links {
		if st != triUp {
			v.LinkUp[l] = false
		}
	}
	return v
}

// functioningNodes lists nodes known up, ascending.
func (s *sysState) functioningNodes() []int {
	var out []int
	for i, st := range s.Nodes {
		if st == triUp {
			out = append(out, i)
		}
	}
	return out
}
