package core

import (
	"sort"

	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/timing"
)

// Phase 1: recovery initiation (§4.2). The node's processor is now running
// recovery code from uncached space; it answers queued pings, diagnoses its
// own router, and explores outward to determine cwn(A): every functioning
// node reachable through a path containing no other functioning node.
//
// Exploration bookkeeping: each link probe holds one unit of `probing`.
// A probe that reaches a live router either resolves immediately (the
// attached node's ping outcome is already known) or registers as a waiter
// on that node's pong; pongs and pong timeouts resolve all waiters at once.

// recoveryCodeRunning is the first act of the recovery code proper.
func (a *Agent) recoveryCodeRunning() {
	a.codeRunning = true
	// Answer pings received while dropping into recovery: the reply is
	// the evidence that this node works (§4.2).
	for _, pd := range a.pongQueue {
		a.sendRec(pd.to, pd.route, interconnect.LaneRecoveryB, recMsg{Kind: kPong})
	}
	a.pongQueue = nil
	// Diagnose the local router.
	answered := false
	a.Net.ProbeRouter([]int{a.ID}, func() {
		answered = true
		a.st.setRouter(a.ID, triUp)
		a.pathTo[a.ID] = []int{a.ID}
		a.exploreFrom(a.ID)
		a.checkExplorationDone()
	})
	epoch := a.epoch
	a.E.After(timing.ProbeTimeout, func() {
		if !answered && a.epoch == epoch && a.phase == PhaseInit {
			// Own router dead: the node cannot reach anyone; shut
			// down cleanly (it is inside a failed region).
			a.isolatedShutdown()
		}
	})
}

// isolatedShutdown stops the node: its failure unit contains a failed
// component and it cannot reach the rest of the machine.
func (a *Agent) isolatedShutdown() {
	a.report.Isolated = true
	a.report.ShutDown = true
	a.setPhase(PhaseShutdown)
	a.watchdog.Cancel()
	a.Ctrl.SetMode(magic.ModeDead)
	if a.cfg.OnComplete != nil {
		a.cfg.OnComplete(a.report)
	}
}

// exploreFrom probes all unexplored links of a reached router (§4.2: probe
// the routers at the end of unexplored links, then ping the attached nodes;
// expansion stops at functioning nodes and failed links).
func (a *Agent) exploreFrom(r int) {
	basePath := a.pathTo[r]
	if basePath == nil {
		return
	}
	for _, adj := range a.Topo.Adjacency(r) {
		if a.explored[adj.Link] {
			continue
		}
		a.explored[adj.Link] = true
		link, far := adj.Link, adj.To
		path := append(append([]int(nil), basePath...), far)
		a.probing++
		a.execInstr(timing.InstrProbeSetup, func() {
			a.probeLink(link, far, path)
		})
	}
}

// probeLink interrogates the router at the end of one link.
func (a *Agent) probeLink(link, far int, path []int) {
	answered := false
	epoch := a.epoch
	a.Net.ProbeRouter(path, func() {
		if a.epoch != epoch || a.phase != PhaseInit {
			return
		}
		answered = true
		a.onRouterAlive(link, far, path)
	})
	a.E.After(timing.ProbeTimeout, func() {
		if answered || a.epoch != epoch || a.phase != PhaseInit {
			return
		}
		// No answer: the link (or the router behind it) is dead. Mark
		// the link down; the router may still be proven alive through
		// another path.
		a.st.setLink(link, triDown)
		a.probing--
		a.checkExplorationDone()
	})
}

// onRouterAlive records a live link+router and waits on the attached node's
// ping outcome.
func (a *Agent) onRouterAlive(link, far int, path []int) {
	a.st.setLink(link, triUp)
	a.st.setRouter(far, triUp)
	if a.pathTo[far] == nil {
		a.pathTo[far] = path
	}
	if alive, known := a.nodePong[far]; known {
		a.settleNode(far, alive)
		a.probing--
		a.checkExplorationDone()
		return
	}
	a.pongWaiters[far]++
	a.ensurePing(far, a.pathTo[far])
}

// ensurePing sends at most one ping per node per epoch and arms its timeout.
func (a *Agent) ensurePing(node int, route []int) {
	if a.pinged[node] {
		return
	}
	a.pinged[node] = true
	a.sendPing(node, route)
	epoch := a.epoch
	a.pongTimer[node] = a.E.After(timing.PingTimeout, func() {
		if a.epoch != epoch {
			return
		}
		if _, known := a.nodePong[node]; !known {
			a.resolveNode(node, false)
		}
	})
}

// onPong handles a pong: the sender has started executing recovery code.
func (a *Agent) onPong(m *recMsg) {
	if _, known := a.nodePong[m.From]; known {
		return
	}
	a.pongTimer[m.From].Cancel()
	a.resolveNode(m.From, true)
}

// resolveNode fixes a node's liveness verdict and releases all probes
// waiting on it.
func (a *Agent) resolveNode(node int, alive bool) {
	a.nodePong[node] = alive
	if alive {
		a.st.setNode(node, triUp)
	} else {
		a.st.setNode(node, triDown)
	}
	if a.phase != PhaseInit {
		return
	}
	a.settleNode(node, alive)
	if w := a.pongWaiters[node]; w > 0 {
		a.pongWaiters[node] = 0
		a.probing -= w
		a.checkExplorationDone()
	}
}

// settleNode applies a ping outcome during exploration: a functioning node
// joins cwn and stops expansion; a dead node's router is expanded through.
// Safe to call more than once (cwn membership and link exploration are
// deduplicated). A node whose router path is not yet known is only
// recorded; a later onRouterAlive settles it properly.
func (a *Agent) settleNode(node int, alive bool) {
	if a.pathTo[node] == nil {
		return
	}
	if alive {
		if a.cwnPath[node] == nil {
			a.cwnPath[node] = a.pathTo[node]
			a.cwn = append(a.cwn, node)
		}
		return
	}
	a.exploreFrom(node)
}

// checkExplorationDone finishes P1 once every outstanding probe and ping
// has resolved.
func (a *Agent) checkExplorationDone() {
	if a.phase != PhaseInit || a.probing != 0 {
		return
	}
	sort.Ints(a.cwn)
	a.report.CwnSize = len(a.cwn)
	a.report.P1End = a.E.Now()
	a.startDissemination()
}
