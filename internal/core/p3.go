package core

import (
	"flashfc/internal/routing"
	"flashfc/internal/timing"
)

// Phase 3: interconnect recovery (§4.4): isolate the failed regions, let
// the stalled traffic drain (two-phase agreement with the τ bound), then
// reprogram the routing tables deadlock-free and barrier before any new
// coherence traffic is injected.
//
// The drain discipline and the table repair are owned by the configured
// routing.Strategy. The default, routing.Paper, is the paper's policy —
// full two-phase drain (DrainFull), complete up*/down* rewrite charged per
// whole row. Alternatives swap in a single-phase drain (DrainPartial:
// the two-phase drain's vote at attempt 0, with no confirm) or none at all
// (DrainNone) and charge reprogramming per entry actually patched.

func (a *Agent) startInterconnectRecovery() {
	a.setPhase(PhaseInterconnect)
	// Isolation: reprogram this node's own router to discard traffic
	// headed into dead links/routers. The elected root additionally
	// reprograms the live routers of dead nodes (their processors cannot
	// do it), including the local-delivery discard that unclogs a
	// controller stuck in an infinite loop.
	charge := timing.InstrRecoveryEntry / 4
	if a.ID == a.conv.root {
		charge += a.Topo.Routers() * 8
	}
	a.execInstr(charge, func() {
		a.isolateRouter(a.ID)
		if a.ID == a.conv.root {
			for r := 0; r < a.Topo.Routers(); r++ {
				if a.st.router(r) == triUp && a.st.node(r) != triUp {
					// A dead node whose memory bank still serves requests
					// (CPU-fail/memory-survives) keeps local delivery: its
					// MAGIC must go on fielding coherence traffic for the
					// home bank. Its router table is still reprogrammed by
					// the root below.
					if a.cfg.MemServes != nil && a.cfg.MemServes(r) {
						continue
					}
					a.isolateRouter(r)
					a.Net.SetDiscardLocal(r, true)
				}
			}
		}
		a.startDrainPhase()
	})
}

// startDrainPhase enters the drain discipline the routing strategy asks
// for (the paper's full two-phase agreement by default).
func (a *Agent) startDrainPhase() {
	switch a.cfg.Routing.Drain() {
	case routing.DrainNone:
		// Tables change under live traffic; in-flight packets reroute
		// mid-journey or die against the new discards.
		a.reprogramRoutes()
	default:
		a.startDrain(0)
	}
}

// isolateRouter configures discards on every port of r that points at a
// dead link or dead router.
func (a *Agent) isolateRouter(r int) {
	for port, adj := range a.Topo.Adjacency(r) {
		if a.st.link(adj.Link) == triDown || a.st.router(adj.To) == triDown {
			a.Net.SetDiscard(r, port, true)
		}
	}
}

// startDrain runs one attempt of the two-phase drain agreement: vote to
// proceed after seeing no stalled-traffic delivery for τ; confirm in a
// second phase that nothing arrived since the first vote, else restart.
func (a *Agent) startDrain(attempt int) {
	a.mDrainAttempts.Inc()
	tr := a.cfg.Trace
	a.spDrain = tr.Begin(a.E.Now(), a.ID, "drain-attempt", a.spPhase, int64(attempt))
	a.spVote = tr.Begin(a.E.Now(), a.ID, "drain-tau-vote", a.spDrain, int64(attempt))
	a.drainQuietCheck(a.startBarrier(barrierKey{kind: barDrainVote, attempt: attempt}))
}

// drainVoted enters the confirm phase once every participant voted: this
// node's confirm is dirty if stalled traffic arrived since its vote. The
// single-phase drain (DrainPartial) has no confirm and ends here, so a
// packet that raced the vote may still be in flight when tables change.
func (a *Agent) drainVoted(attempt int) {
	tr := a.cfg.Trace
	tr.End(a.E.Now(), a.spVote)
	if a.cfg.Routing.Drain() == routing.DrainPartial {
		tr.End(a.E.Now(), a.spDrain)
		a.reprogramRoutes()
		return
	}
	dirty := a.Ctrl.LastNormalDelivery() > a.voteAt
	a.spConfirm = tr.Begin(a.E.Now(), a.ID, "drain-tau-confirm", a.spDrain, int64(attempt))
	a.barrierReady(a.startBarrier(barrierKey{kind: barDrainConfirm, attempt: attempt}), dirty)
}

// drainConfirmed ends a drain attempt: a dirty confirm restarts the
// agreement, a clean one reprograms the routes.
func (a *Agent) drainConfirmed(attempt int, dirty bool) {
	now := a.E.Now()
	a.cfg.Trace.End(now, a.spConfirm)
	a.cfg.Trace.End(now, a.spDrain)
	if dirty {
		a.mDrainRestarts.Inc()
		a.startDrain(attempt + 1)
		return
	}
	a.reprogramRoutes()
}

// drainQuietCheck votes in drain barrier i once the controller has seen no
// normal-lane delivery for τ.
func (a *Agent) drainQuietCheck(i int) {
	a.E.AfterCall(timing.DrainTau, drainQuiet, a, nil, a.tag(i))
}

// drainQuiet is drainQuietCheck's pre-bound check, re-armed until the
// controller has been quiet for τ.
func drainQuiet(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.epoch != int(u>>32) || a.phase != PhaseInterconnect {
		return
	}
	quiet := a.E.Now() - a.Ctrl.LastNormalDelivery()
	if quiet >= timing.DrainTau {
		a.voteAt = a.E.Now()
		a.barrierReady(int(uint32(u)), false)
		return
	}
	a.E.AfterCall(timing.DrainTau-quiet, drainQuiet, a, nil, u)
}

// reprogramRoutes takes the strategy's repair of the surviving graph (the
// paper's: full up*/down* tables) from the machine's memo — computed by the
// first agent to get here with this view, shared read-only by the rest — and
// installs this node's router row (the root also handles dead nodes' live
// routers), then barriers before new traffic is allowed (§4.4). The memo
// saves host time only: every agent is still charged, in simulated time, for
// the entries the repair patches in its row (the paper's: the whole row).
func (a *Agent) reprogramRoutes() {
	n := a.Topo.Routers()
	rep := a.conv.repair(a.cfg.Routing)
	patched := rep.PatchedPerRouter[a.ID]
	a.mRoutesPatched.Add(uint64(patched))
	if rep.Fallback {
		a.mRouteFallbacks.Inc()
	}
	charge := patched * timing.InstrRouteTablePerEntry
	if a.ID == a.conv.root {
		charge *= 2 // rows for orphaned routers too
	}
	a.spRoutes = a.cfg.Trace.Begin(a.E.Now(), a.ID, "route-reprogram", a.spPhase, 0)
	a.execInstr(charge, func() {
		a.Net.SetRouterTable(a.ID, rep.Tables[a.ID])
		if a.ID == a.conv.root {
			for r := 0; r < n; r++ {
				if a.st.router(r) == triUp && a.st.node(r) != triUp {
					a.Net.SetRouterTable(r, rep.Tables[r])
				}
			}
		}
		a.passBarrier(barrierKey{kind: barP3Post})
	})
}

// routesInstalled ends P3 once every participant has its new tables.
func (a *Agent) routesInstalled() {
	a.cfg.Trace.End(a.E.Now(), a.spRoutes)
	a.report.P3End = a.E.Now()
	a.startCoherenceRecovery()
}
