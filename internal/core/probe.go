package core

import (
	"slices"
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

// probe is one router interrogation of this epoch: the link it crosses (-1
// for the node's own router), the router behind it and the source route
// there. Its callbacks name it by index in a.ep.probes.
type probe struct {
	link, far int
	path      []int
	answered  bool
}

// newProbe records a probe and returns its index.
func (a *Agent) newProbe(link, far int, path []int) int {
	a.ep.probes = append(a.ep.probes, probe{link: link, far: far, path: path})
	return len(a.ep.probes) - 1
}

// recoveryCodeRunning is the first act of the recovery code proper.
func (a *Agent) recoveryCodeRunning() {
	a.codeRunning = true
	// Answer pings received while dropping into recovery: the reply is
	// the evidence that this node works (§4.2).
	for _, pd := range a.pongQueue {
		a.sendRec(pd.to, pd.route, interconnect.LaneRecoveryB, recMsg{Kind: kPong})
	}
	clear(a.pongQueue)
	a.pongQueue = a.pongQueue[:0]
	// Diagnose the local router.
	path := a.carve(1)
	path[0] = a.ID
	i := a.newProbe(-1, a.ID, path)
	a.Net.ProbeRouter(path, ownRouterAnswered, a, nil, a.tag(i))
	a.E.AfterCall(timing.ProbeTimeout, ownRouterTimedOut, a, nil, a.tag(i))
}

// ownRouterAnswered starts exploration from the node's own router. It acts
// even when a restart superseded the probe's epoch: the fresh run's router
// is the same one.
func ownRouterAnswered(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.ep == nil {
		return // finished: the scratch it would explore with is gone
	}
	if a.epoch == int(u>>32) {
		a.ep.probes[uint32(u)].answered = true
	}
	a.st.setRouter(a.ID, triUp)
	path := a.carve(1)
	path[0] = a.ID
	a.ep.reach(a.ID).path = path
	a.exploreFrom(a.ID)
	a.checkExplorationDone()
}

// ownRouterTimedOut shuts the node down when its own router never answered:
// the node cannot reach anyone (it is inside a failed region).
func ownRouterTimedOut(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.epoch == int(u>>32) && a.phase == PhaseInit && !a.ep.probes[uint32(u)].answered {
		a.isolatedShutdown()
	}
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
	ns := a.ep.node(r)
	if ns == nil || ns.path == nil {
		return
	}
	basePath := ns.path
	for _, adj := range a.Topo.Adjacency(r) {
		if a.ep.explored(adj.Link) {
			continue
		}
		path := a.carve(len(basePath) + 1)
		copy(path, basePath)
		path[len(basePath)] = adj.To
		a.probing++
		a.execArg(timing.InstrProbeSetup, probeSetUp, a.newProbe(adj.Link, adj.To, path))
	}
}

// probeSetUp interrogates the router at the end of one link once the probe's
// setup charge is paid.
func probeSetUp(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if !a.current(u) {
		return
	}
	a.Net.ProbeRouter(a.ep.probes[uint32(u)].path, probeAnswered, a, nil, u)
	a.E.AfterCall(timing.ProbeTimeout, probeTimedOut, a, nil, u)
}

// probeAnswered records a live link and router.
func probeAnswered(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.epoch != int(u>>32) || a.phase != PhaseInit {
		return
	}
	p := &a.ep.probes[uint32(u)]
	p.answered = true
	a.onRouterAlive(p.link, p.far, p.path)
}

// probeTimedOut handles a probe that got no answer: the link (or the router
// behind it) is dead. The link is marked down; the router may still be
// proven alive through another path.
func probeTimedOut(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.epoch != int(u>>32) || a.phase != PhaseInit || a.ep.probes[uint32(u)].answered {
		return
	}
	a.st.setLink(a.ep.probes[uint32(u)].link, triDown)
	a.probing--
	a.checkExplorationDone()
}

// onRouterAlive records a live link+router and waits on the attached node's
// ping outcome.
func (a *Agent) onRouterAlive(link, far int, path []int) {
	a.st.setLink(link, triUp)
	a.st.setRouter(far, triUp)
	ns := a.ep.reach(far)
	if ns.path == nil {
		ns.path = path
	}
	if ns.known {
		a.settleNode(far, ns.alive)
		a.probing--
		a.checkExplorationDone()
		return
	}
	ns.waiters++
	a.ensurePing(far, ns.path)
}

// ensurePing sends at most one ping per node per epoch and arms its timeout.
func (a *Agent) ensurePing(node int, route []int) {
	ns := a.ep.node(node)
	if ns.ping != 0 {
		return
	}
	a.sendPing(node, route)
	a.ep.pings = append(a.ep.pings, a.E.AfterCall(timing.PingTimeout, pingTimedOut, a, nil, a.tag(node)))
	ns.ping = int32(len(a.ep.pings))
}

// pingTimedOut declares a node dead when its pong never came.
func pingTimedOut(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.epoch != int(u>>32) || a.ep == nil {
		return
	}
	if node := int(uint32(u)); !a.ep.node(node).known {
		a.resolveNode(node, false)
	}
}

// onPong handles a pong: the sender has started executing recovery code.
func (a *Agent) onPong(m *recMsg) {
	if a.ep == nil {
		return
	}
	if ns := a.ep.node(m.From); ns != nil {
		if ns.known {
			return
		}
		if ns.ping != 0 {
			a.ep.pings[ns.ping-1].Cancel()
		}
	}
	a.resolveNode(m.From, true)
}

// resolveNode fixes a node's liveness verdict and releases all probes
// waiting on it.
func (a *Agent) resolveNode(node int, alive bool) {
	ns := a.ep.reach(node)
	ns.known, ns.alive = true, alive
	if alive {
		a.st.setNode(node, triUp)
	} else {
		a.st.setNode(node, triDown)
	}
	if a.phase != PhaseInit {
		return
	}
	a.settleNode(node, alive)
	if w := ns.waiters; w > 0 {
		ns.waiters = 0
		a.probing -= int(w)
		a.checkExplorationDone()
	}
}

// settleNode applies a ping outcome during exploration: a functioning node
// joins cwn and stops expansion; a dead node's router is expanded through.
// Safe to call more than once (cwn membership and link exploration are
// deduplicated). A node whose router path is not yet known is only
// recorded; a later onRouterAlive settles it properly.
func (a *Agent) settleNode(node int, alive bool) {
	ns := a.ep.node(node)
	if ns == nil || ns.path == nil {
		return
	}
	if alive {
		if !ns.inCwn {
			ns.inCwn = true
			a.cwn = append(a.cwn, node)
		}
		return
	}
	a.exploreFrom(node)
}

// checkExplorationDone finishes P1 once every outstanding probe and ping
// has resolved: cwn is sorted, and cwnRoute follows it.
func (a *Agent) checkExplorationDone() {
	if a.phase != PhaseInit || a.probing != 0 {
		return
	}
	sort.Ints(a.cwn)
	a.cwnRoute = slices.Grow(a.cwnRoute[:0], len(a.cwn))
	for _, q := range a.cwn {
		a.cwnRoute = append(a.cwnRoute, a.ep.node(q).path)
	}
	a.report.CwnSize = len(a.cwn)
	a.report.P1End = a.E.Now()
	a.startDissemination()
}
