package core

import (
	"slices"

	"flashfc/internal/interconnect"
	"flashfc/internal/timing"
)

// Phase 2: information dissemination (§4.3). Each round, a node exchanges
// its (link, node) state with every member of its cwn set and merges what
// it receives. A node gains full knowledge after a number of rounds equal
// to the height of the BFT rooted at it; to terminate consistently, all
// nodes run until round > target, where target = 2h (twice the height of
// the BFT rooted at the deterministically elected root), an upper bound on
// the diameter. Nodes that finish keep echoing their final state so that
// slower nodes never stall ("lame duck" responses).

func (a *Agent) startDissemination() {
	a.setPhase(PhaseDissemination)
	if len(a.cwn) == 0 {
		// Alone in the world: knowledge is already complete.
		a.finishDissemination()
		return
	}
	a.round = 1
	a.target = 1 // grows as knowledge accumulates
	a.stable = 0
	a.sendRound()
}

// gossipWords is the serialized size of a state message.
func (a *Agent) gossipWords() int { return a.st.words() + 4 }

// sendRound serializes the node's current state once and ships it to every
// cwn member, charging the marshaling plus per-destination send costs.
func (a *Agent) sendRound() {
	words := a.gossipWords()
	charge := timing.InstrGossipRoundFixed + words*timing.InstrGossipPerWord +
		len(a.cwn)*timing.InstrGossipPerNeighbor
	a.spRound = a.cfg.Trace.Begin(a.E.Now(), a.ID, "gossip-round", a.spPhase, int64(a.round))
	a.execArg(charge, roundSent, a.round)
}

// atRound reports whether a round continuation tagged u (with the round)
// still applies: the node is alive and still in P2 at that epoch and round.
func (a *Agent) atRound(u uint64) bool {
	return a.current(u) && a.phase == PhaseDissemination && a.round == int(uint32(u))
}

// roundSent ships the round once its marshaling charge is paid.
func roundSent(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if !a.atRound(u) {
		return
	}
	a.mGossipRounds.Inc()
	// One snapshot per round, shared by every cwn member's message: a.st
	// keeps changing under merge, a snapshot in flight never does —
	// receivers only read it (merge writes the receiver's own state).
	a.broadcast(a.cwn, interconnect.LaneRecoveryA, recMsg{
		Kind: kState, Round: a.round,
		State: a.snapshot(), Target: a.target, Hint: a.hint,
	}, func(i int) []int { return a.cwnRoute[i] })
	a.checkRound()
}

// snapshot returns a read-only copy of a.st. While nothing has written a.st
// since the last round shipped — the merge between them changed nothing —
// that round's copy is the answer; otherwise it is a fresh one, carved
// from the epoch's snapshot arena.
func (a *Agent) snapshot() *sysState {
	if a.stable == 0 || a.snap == nil || !a.snap.equal(a.st) {
		a.snap = a.carveState(a.st)
	}
	return a.snap
}

// snapBlock is how many round snapshots one block of the arena holds: about
// the rounds of an epoch in which a node's knowledge still changes on the
// mesh and hypercube up to 128 nodes.
const snapBlock = 8

// carveState returns a copy of s carved from the epoch's snapshot arena. A
// snapshot is read-only once shipped, so a full block is left to its
// snapshots and a fresh one started, never reused.
func (a *Agent) carveState(s *sysState) *sysState {
	ep := a.ep
	w := len(s.up)
	if len(ep.states) == cap(ep.states) {
		ep.states = make([]sysState, 0, snapBlock)
	}
	if cap(ep.words)-len(ep.words) < 2*w {
		ep.words = make([]uint64, 0, snapBlock*2*w)
	}
	k := len(ep.words)
	ep.words = append(ep.words, s.up...)
	ep.words = append(ep.words, s.down...)
	ep.states = append(ep.states, sysState{
		n: s.n, l: s.l, up: ep.words[k : k+w : k+w], down: ep.words[k+w : k+2*w : k+2*w],
	})
	return &ep.states[len(ep.states)-1]
}

// onState buffers an incoming gossip message and advances the round when
// complete. After dissemination has finished locally, incoming state
// messages get an immediate echo of the final state instead; a node that
// shut down without finishing it drops them.
func (a *Agent) onState(m *recMsg) {
	if a.phase > PhaseDissemination && a.finalState != nil {
		a.sendRec(m.From, a.routeTo(m.From), interconnect.LaneRecoveryA, recMsg{
			Kind: kState, Round: m.Round,
			State: a.finalState, Target: a.target, Hint: a.hint,
		})
		return
	}
	if a.phase >= PhaseDone {
		return // no round of this epoch will be merged any more
	}
	if m.Round >= a.round {
		a.store(m)
	}
	a.checkRound()
}

// inboxRow is one round's state messages, at most one per sender.
type inboxRow struct {
	round int
	msgs  []recMsg
}

// store copies m into its round's row, replacing an earlier message from
// the same sender. Rows are kept in ascending round order and hold only the
// rounds not yet merged: a message for a round already merged would never
// be read (see latest). A sender need not be in cwn yet: a neighbour may
// gossip before this node's P1 has found it.
func (a *Agent) store(m *recMsg) {
	ep := a.ep
	i := 0
	for i < len(ep.inbox) && ep.inbox[i].round < m.Round {
		i++
	}
	if i == len(ep.inbox) || ep.inbox[i].round != m.Round {
		row := ep.spareRow
		ep.spareRow = nil
		if row == nil {
			row = make([]recMsg, 0, max(len(a.cwn), len(a.Topo.Adjacency(a.ID))))
		}
		ep.inbox = slices.Insert(ep.inbox, i, inboxRow{round: m.Round, msgs: row})
	}
	row := &ep.inbox[i]
	for k := range row.msgs {
		if row.msgs[k].From == m.From {
			row.msgs[k] = *m
			return
		}
	}
	row.msgs = append(row.msgs, *m)
}

// latest returns cwn member q's state message for the current round or,
// if that one is missing, q's earliest message of a later round; nil if
// neither has arrived. merge is a join (idempotent, commutative and
// associative) and a node's state only grows, so q's later state
// subsumes the one a recovery lane dropped: the round merges without it
// instead of waiting for the watchdog's epoch restart. The rows ascend
// from the current round at the lowest, so the first message from q is
// the one.
func (a *Agent) latest(q int) *recMsg {
	for i := range a.ep.inbox {
		row := &a.ep.inbox[i]
		for k := range row.msgs {
			if row.msgs[k].From == q {
				return &row.msgs[k]
			}
		}
	}
	return nil
}

// checkRound merges the current round once every cwn member's message for
// it, or a later one standing in for it, is in. The merging guard prevents
// double-scheduling when the last message arrives while sendRound's charge
// is still being paid.
func (a *Agent) checkRound() {
	if a.phase != PhaseDissemination || a.round == 0 || a.merging {
		return
	}
	for _, q := range a.cwn {
		if a.latest(q) == nil {
			return
		}
	}
	a.merging = true
	// The merge is one pass over the state arrays consulting all the
	// received buffers, so its cost scales with the state size, not the
	// neighbor count.
	a.execArg(2*a.gossipWords()*timing.InstrGossipPerWord, roundMerged, a.round)
}

// roundMerged folds the round's messages into a.st once the merge charge is
// paid, and recycles the round's inbox row, if it has one, for a later
// round.
func roundMerged(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if !a.atRound(u) {
		return
	}
	changed := false
	for _, q := range a.cwn {
		m := a.latest(q)
		if a.st.merge(m.State) {
			changed = true
		}
		if m.Target > a.target {
			a.target = m.Target
		}
		if m.Hint > a.hint {
			a.hint = m.Hint
		}
	}
	if ep := a.ep; len(ep.inbox) > 0 && ep.inbox[0].round == a.round {
		row := ep.inbox[0].msgs
		clear(row)
		ep.spareRow = row[:0]
		ep.inbox = slices.Delete(ep.inbox, 0, 1)
	}
	if changed {
		a.stable = 0
	} else {
		a.stable++
	}
	a.report.Rounds = a.round
	a.afterMerge()
}

// afterMerge updates the termination bound and either advances to the next
// round or finishes. The 2h bound is recomputed once the local state is
// stable; with BFT hints enabled a node that already received a hint skips
// its own computation (the §4.3 scheduling optimization) and the final
// tree is computed by everyone in parallel at the end of the phase.
func (a *Agent) afterMerge() {
	if a.stable >= 1 {
		if a.cfg.BFTHints && a.hint > 0 {
			if a.hint > a.target {
				a.target = a.hint
			}
			a.advanceRound()
			return
		}
		// Compute the BFT bound now, charging O(V+E); without hints
		// this computation happens on every stable round and chains
		// between neighbors. The state is taken now, as the machine's
		// memo entry for it; the charged continuation reads the bound
		// from that entry, computed once for every agent that asks.
		a.boundAt = a.cfg.Memo.lookup(a.st, a.Topo)
		charge := timing.InstrBFTPerEdge * (a.Topo.Routers() + len(a.Topo.Links()))
		a.execArg(charge, boundComputed, 0)
		return
	}
	a.advanceRound()
}

// boundComputed raises the termination bound to 2h of the state afterMerge
// took (§4.3) and advances the round.
func boundComputed(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if !a.current(u) || a.phase != PhaseDissemination {
		return
	}
	bound := a.boundAt.termination()
	a.boundAt = nil
	if bound > a.target {
		a.target = bound
		a.mBFTBoundHits.Inc()
	}
	a.hint = bound
	a.advanceRound()
}

func (a *Agent) advanceRound() {
	a.merging = false
	a.cfg.Trace.End(a.E.Now(), a.spRound)
	a.spRound = 0
	if a.round >= a.target && a.stable >= 1 {
		a.finishDissemination()
		return
	}
	a.round++
	a.sendRound()
}

// finishDissemination fixes the global view, elects the root, computes the
// breadth-first tree used by all later barriers, determines which failure
// units are doomed, and updates the hardware node map (§4.3).
func (a *Agent) finishDissemination() {
	a.finalState = a.st.clone()
	a.dropP2Scratch()
	charge := timing.InstrBFTPerEdge * (a.Topo.Routers() + len(a.Topo.Links()))
	a.execInstr(charge, func() {
		// The view, the root (the first functioning node), its tree and
		// the participants — the functioning nodes reachable from the
		// root — come from the machine's memo entry for this state.
		e := a.cfg.Memo.lookup(a.st, a.Topo)
		e.converge()
		if e.root < 0 {
			a.isolatedShutdown()
			return
		}
		a.conv = e
		a.flushCount = 0
		for _, n := range e.parts {
			if a.flushSeen.Has(n) {
				a.flushCount++ // a flush-done that beat the participant list
			}
		}
		if !e.partSet.Has(a.ID) {
			a.isolatedShutdown()
			return
		}
		// Split-brain guard (§4.2): refuse to recover a minority island.
		if float64(len(e.parts)) < timing.QuorumFraction*float64(a.Topo.Routers()) {
			a.isolatedShutdown()
			return
		}
		// Failure units: a unit with any failed component takes its
		// surviving members down with it after P4 (§4.3).
		failedUnit := e.failedUnits(a.cfg.FailureUnits)
		units := a.cfg.FailureUnits
		a.doomed = units != nil && failedUnit[units[a.ID]]
		// Node map: failed nodes and doomed-unit members are marked
		// down so that no new coherence requests target them. A down
		// node whose memory bank interrogates as still served (the
		// CPU-fail/memory-survives model) is additionally marked
		// memory-reachable, so clean lines homed there stay readable
		// instead of bus-erroring.
		for i := 0; i < a.Topo.Routers(); i++ {
			up := a.st.node(i) == triUp
			if up && units != nil && failedUnit[units[i]] {
				up = false
			}
			a.Ctrl.SetNodeUp(i, up)
			memSrv := !up && a.st.router(i) == triUp &&
				a.cfg.MemServes != nil && a.cfg.MemServes(i)
			a.Ctrl.SetMemReachable(i, memSrv)
		}
		a.report.P2End = a.E.Now()
		a.startInterconnectRecovery()
	})
}

// dropP2Scratch releases what only the gossip rounds read: the inbox rows
// and the round snapshot.
func (a *Agent) dropP2Scratch() {
	if a.ep != nil {
		a.ep.inbox, a.ep.spareRow = nil, nil
	}
	a.snap = nil
}

// routeTo returns a source route to a participant: the P1 route to a cwn
// member, else the path down the tree rooted here over the post-
// dissemination view (built once per epoch, on first use). A finished
// agent, its view dropped, answers from cwnRoute alone (nil: follow the
// tables).
func (a *Agent) routeTo(node int) []int {
	if i, ok := slices.BinarySearch(a.cwn, node); ok {
		return a.cwnRoute[i]
	}
	if a.conv == nil {
		return nil
	}
	if a.own == nil {
		a.conv.viewOf().BFSInto(&a.ep.own, a.ID)
		a.own = &a.ep.own
	}
	d := a.own.Dist[node]
	if d < 0 {
		return nil
	}
	// Walk parents back from node to self, filling from the end.
	route := a.carve(d + 1)
	for i, r := d, node; i >= 0; i-- {
		route[i] = r
		r = a.own.Parent[r]
	}
	return route
}
