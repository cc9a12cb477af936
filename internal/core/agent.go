package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/routing"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// Phase identifies where an agent is in the recovery algorithm (Fig 4.2).
type Phase int

const (
	PhaseIdle Phase = iota
	PhaseInit
	PhaseDissemination
	PhaseInterconnect
	PhaseCoherence
	PhaseDone
	PhaseShutdown
)

func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseInit:
		return "P1-initiation"
	case PhaseDissemination:
		return "P2-dissemination"
	case PhaseInterconnect:
		return "P3-interconnect"
	case PhaseCoherence:
		return "P4-coherence"
	case PhaseDone:
		return "done"
	case PhaseShutdown:
		return "shutdown"
	default:
		return "?"
	}
}

// Report summarizes one node's run of the recovery algorithm; the machine
// layer aggregates these into the per-phase times of Figs 5.5–5.7.
type Report struct {
	Node     int
	Epoch    int
	Restarts int
	Reason   magic.TriggerReason
	// Isolated means the node found its own router dead (or itself cut
	// off) and shut down without participating.
	Isolated bool
	// ShutDown means the node was part of a failure unit with a failed
	// component and shut itself down after P4 (§4.3).
	ShutDown bool

	Start, P1End, P2End, P3End, P4End sim.Time
	// FlushEnd is when this node finished its cache-flush loop, splitting
	// P4 into its WB and directory-scan components (Fig 5.6).
	FlushEnd sim.Time

	Rounds     int // dissemination rounds executed
	CwnSize    int
	Writebacks int // flush writebacks sent
	Incoherent int // lines this node's directory marked incoherent
}

// Config tunes the recovery algorithm.
type Config struct {
	// UncachedInstr is the per-instruction cost of recovery code (§4.1:
	// the processor runs from uncached space at under 2.5 MIPS).
	UncachedInstr sim.Time
	// SpeculativePing sends pings to immediate neighbors at recovery
	// entry, before cwn exploration — the §4.2 optimization that speeds
	// up recovery triggering about fivefold.
	SpeculativePing bool
	// BFTHints defers BFT computations on hint-receiving nodes so they
	// run in parallel at the end of dissemination instead of chaining
	// between neighbors (§4.3).
	BFTHints bool
	// FailureUnits maps node → failure-unit id; a functioning node whose
	// unit contains a failed component shuts down after P4 (§3.3, §4.3).
	// nil means every node is its own unit.
	FailureUnits []int
	// MemServes reports whether a down node's memory/directory bank still
	// answers coherence requests (the CPU-fail/memory-survives model): its
	// processor died but MAGIC keeps serving the home bank. Such a node is
	// marked memory-reachable instead of being isolated, so survivors can
	// salvage clean lines homed there. nil means never.
	MemServes func(node int) bool
	// HardwiredController models the §6.2 hardwired-node-controller
	// variant: the main processor performs the node controller's
	// recovery work itself through uncached accesses, so the P4 flush
	// and directory sweep run at processor speed instead of inside
	// MAGIC. Normal-mode behaviour is unchanged.
	HardwiredController bool

	// Routing selects the interconnect-recovery routing strategy P3 runs:
	// its drain discipline, table repair, and per-entry reprogramming
	// charge. nil is routing.Paper (full two-phase drain + complete
	// up*/down* rewrite). The strategy-only counters are registered for
	// every other strategy, so a paper machine's metrics carry none.
	Routing routing.Strategy
	// Repairs memoises the P3 table repair across the agents of one
	// machine, which wires a fresh memo into every agent it builds. nil
	// gives the agent a private one.
	Repairs *RepairMemo

	// Metrics, when non-nil, receives machine-wide recovery-algorithm
	// counters (gossip rounds, BFT bound growth, drain attempts/restarts,
	// watchdog restarts). Shared by every agent of one machine.
	Metrics *metrics.Registry

	// Trace, when non-nil, receives the recovery span tree (node spans,
	// P1–P4 phase spans, gossip rounds, drain attempts, flush/scan) and
	// the flat phase-transition timeline. Shared by every agent of one
	// machine; nil disables tracing at zero cost.
	Trace *trace.Tracer

	// OnEnter fires when the node drops into recovery (pause workload).
	OnEnter func(node int)
	// OnComplete fires when this node's recovery finishes.
	OnComplete func(*Report)
	// OnPhase, if set, observes phase transitions (tests, tracing).
	OnPhase func(node int, p Phase)

	// watchdogTimeout is timing.WatchdogTimeout; a test rig sets it to 0
	// to run without the restart watchdog.
	watchdogTimeout sim.Time
}

// DefaultConfig returns the paper-calibrated recovery options. The P4
// charge sizes come from the node's own cache and memory.
func DefaultConfig() Config {
	return Config{
		UncachedInstr:   timing.UncachedInstrSimOS,
		SpeculativePing: true,
		BFTHints:        true,
		watchdogTimeout: timing.WatchdogTimeout,
	}
}

// Agent executes the recovery algorithm on one node.
type Agent struct {
	ID   int
	E    *sim.Engine
	Net  *interconnect.Network
	Ctrl *magic.Controller
	Topo *topology.Topology
	cfg  Config

	epoch     int
	phase     Phase
	busyUntil sim.Time
	// heard is when the agent last heard a message of its epoch (or
	// entered it): with busyUntil, what the watchdog counts as progress.
	heard  sim.Time
	report *Report

	// ep is the epoch's host scratch; nil before the first epoch and once
	// the agent has finished.
	ep *epochScratch

	// P1 state.
	st        *sysState
	probing   int   // outstanding probe/ping operations
	cwn       []int // ascending once P1 ends
	cwnRoute  [][]int
	pongQueue []pongDest // pings answered once recovery code runs

	// P2 state.
	round   int
	target  int
	stable  int
	merging bool // a round merge is charged but not yet applied
	// snap is the state the last round shipped, carved from the epoch's
	// snapshot arena. It is read-only once sent; the next round ships it
	// again if a.st still equals it.
	snap *sysState
	hint int
	// finalState is the lame-duck echo source after P2: a copy of a.st as
	// P2 ended, allocated on its own so that it outlives the epoch's
	// arenas.
	finalState *sysState

	// Post-P2 derived state. view, bft and own point into ep once
	// computed.
	view         *topology.View
	bft          *topology.BFT // rooted at root
	own          *topology.BFT // rooted here, for routeTo; built on first use
	root         int
	participants []int
	partSet      []bool // partSet[v]: v is a participant
	doomed       bool

	// Barriers.
	tree   *barrierTree // built on the epoch's first barrier
	voteAt sim.Time

	// P4 all-to-all flush barrier: flushSeen[v] once node v's flush-done
	// (or, for v == ID, this node's own flush) is in this epoch;
	// flushCount counts the participants among them.
	flushSeen  []bool
	flushCount int
	scanned    bool

	watchdog sim.Timer
	// codeRunning is set once the recovery code is confirmed executing
	// on the processor; pings are answerable from then on (§4.2).
	codeRunning bool
	// dead is set when the node's hardware fails: the agent (which runs
	// on the node's processor) stops executing entirely.
	dead bool

	// Pre-resolved machine-wide metric instruments (nil-safe).
	mGossipRounds  *metrics.Counter
	mBFTBoundHits  *metrics.Counter
	mDrainAttempts *metrics.Counter
	mDrainRestarts *metrics.Counter
	mRestarts      *metrics.Counter
	// Strategy-only instruments, registered exclusively when a non-nil
	// routing strategy is configured so the paper path's metric snapshots
	// stay byte-identical.
	mRoutesPatched  *metrics.Counter
	mRouteFallbacks *metrics.Counter

	// Open trace spans (0 when absent or tracing disabled).
	spNode      trace.SpanID // this epoch's node-recovery span
	spPhase     trace.SpanID // current P1–P4 phase span
	spRound     trace.SpanID // current gossip-round span
	spFlushWait trace.SpanID // P4 all-to-all flush barrier wait
	// P3's open drain and route spans, closed by the barrier continuations.
	spDrain, spVote, spConfirm, spRoutes trace.SpanID
}

type pongDest struct {
	to    int
	route []int
}

// epochScratch is what an epoch's P1 and P3 work with on the host. It is
// allocated at an agent's first epoch, cleared in place at a restart, and
// dropped when the agent finishes.
type epochScratch struct {
	nodes    []nodeScratch // indexed by node (and its router)
	explored []bool        // links already probed
	probes   []probe       // the probes, named by index in callbacks
	pings    []sim.Timer   // the ping timeouts
	// paths is the route arena (see carve): probe, ping, pong, barrier and
	// routeTo routes are carved from it.
	paths []int
	// The view and trees the agent computes into: P2's bound computations
	// and the final view and BFT share view and bft.
	view     topology.View
	bft, own topology.BFT
	bars     []barrierState // the barriers, named by index in callbacks
	// inbox holds P2's state messages of the rounds not yet merged, by
	// value, one row per round in ascending round order (see store).
	inbox []inboxRow
	// spareRow is the last merged round's row, cleared, kept for the next
	// round to fill.
	spareRow []recMsg
	// free holds the agent's recovery records ready for a send (see
	// recPacket). It outlives restarts and goes with the scratch.
	free []*recPacket
	// states and words are the round snapshot arena (see snapshot): the
	// snapshots and their bitmaps are carved from blocks that, like the
	// route arena's, are never reused, because messages in flight and
	// receivers' inboxes hold the snapshots.
	states []sysState
	words  []uint64
}

// nodeScratch is what this epoch's P1 knows of one node and its router.
type nodeScratch struct {
	path    []int // source route to the router; nil until reached
	waiters int32 // probes waiting on the node's ping outcome
	ping    int32 // 1 + the index of its ping's timeout in pings; 0 if none
	known   bool  // the ping outcome is in
	alive   bool  // the outcome: a pong came back
	inCwn   bool
}

// NewAgent wires a recovery agent to its node and registers it as the
// controller's trigger and recovery-packet handler.
func NewAgent(e *sim.Engine, net *interconnect.Network, ctrl *magic.Controller,
	topo *topology.Topology, cfg Config) *Agent {
	a := &Agent{
		ID: ctrl.ID, E: e, Net: net, Ctrl: ctrl, Topo: topo, cfg: cfg,
	}
	if a.cfg.Routing == nil {
		a.cfg.Routing = routing.Paper
	}
	if a.cfg.Repairs == nil {
		a.cfg.Repairs = NewRepairMemo()
	}
	a.mGossipRounds = cfg.Metrics.Counter("core.gossip_rounds")
	a.mBFTBoundHits = cfg.Metrics.Counter("core.bft_bound_hits")
	a.mDrainAttempts = cfg.Metrics.Counter("core.drain_attempts")
	a.mDrainRestarts = cfg.Metrics.Counter("core.drain_restarts")
	a.mRestarts = cfg.Metrics.Counter("core.recovery_restarts")
	if a.cfg.Routing != routing.Paper {
		a.mRoutesPatched = cfg.Metrics.Counter("core.routes_patched")
		a.mRouteFallbacks = cfg.Metrics.Counter("core.route_fallbacks")
	}
	ctrl.SetTriggerHandler(a.Trigger)
	ctrl.SetRecoveryHandler(a.handlePacket)
	return a
}

// Phase returns the agent's current phase.
func (a *Agent) Phase() Phase { return a.phase }

// Epoch returns the agent's recovery epoch.
func (a *Agent) Epoch() int { return a.epoch }

// Report returns the agent's (possibly in-progress) report.
func (a *Agent) Report() *Report { return a.report }

func (a *Agent) setPhase(p Phase) {
	a.phase = p
	if tr := a.cfg.Trace; tr != nil {
		now := a.E.Now()
		tr.Point(now, a.ID, trace.KindPhase, p.String(), 0, 0, 0)
		tr.End(now, a.spPhase) // also closes any open round/drain sub-spans
		a.spPhase, a.spRound = 0, 0
		switch p {
		case PhaseInit, PhaseDissemination, PhaseInterconnect, PhaseCoherence:
			a.spPhase = tr.Begin(now, a.ID, p.String(), a.spNode, 0)
		case PhaseDone, PhaseShutdown:
			tr.End(now, a.spNode)
			a.spNode = 0
		}
	}
	if p == PhaseDone || p == PhaseShutdown {
		// A finished agent stays resident with its machine: it keeps
		// none of the epoch's scratch. What it still answers — a late
		// gossip round's echo, a ping — it answers from cwnRoute and
		// finalState, or with a freshly built route.
		a.dropP2Scratch()
		a.ep, a.view, a.bft, a.own, a.tree = nil, nil, nil, nil, nil
	}
	if a.cfg.OnPhase != nil {
		a.cfg.OnPhase(a.ID, p)
	}
}

// Kill stops the agent: the node's hardware has failed, so the recovery
// code running on its processor dies with it.
func (a *Agent) Kill() {
	a.dead = true
	a.watchdog.Cancel()
	a.setPhase(PhaseShutdown)
}

// Trigger starts the recovery algorithm in response to one of the Table 4.1
// conditions. Triggers while recovery is already running are ignored: the
// watchdog and epoch mechanism handle faults during recovery.
func (a *Agent) Trigger(reason magic.TriggerReason) {
	if a.dead || (a.phase != PhaseIdle && a.phase != PhaseDone) {
		return
	}
	if a.epoch == 0 {
		a.epoch = 1
	} else if a.phase == PhaseDone {
		// A fresh fault after a completed recovery starts a new epoch,
		// so that stragglers of the previous run cannot alias with the
		// new one (messages carry the epoch; old ones are dropped).
		a.epoch++
	}
	a.enter(reason)
}

// enter begins (or restarts) recovery at the current epoch.
func (a *Agent) enter(reason magic.TriggerReason) {
	if a.report == nil || a.phase == PhaseDone {
		a.report = &Report{Node: a.ID, Reason: reason, Start: a.E.Now()}
	}
	a.report.Epoch = a.epoch
	if tr := a.cfg.Trace; tr != nil {
		now := a.E.Now()
		// On a restart the superseded epoch's span (and its open
		// descendants) close here, at the moment the new epoch begins.
		tr.End(now, a.spNode)
		root := tr.EnsureRoot(now, "recovery")
		a.spNode = tr.Begin(now, a.ID, "node-recovery", root, int64(a.epoch))
		a.spPhase, a.spRound, a.spFlushWait = 0, 0, 0
	}
	a.resetState()
	a.setPhase(PhaseInit)
	a.Ctrl.EnterRecovery()
	if a.cfg.OnEnter != nil {
		a.cfg.OnEnter(a.ID)
	}
	a.heard = a.E.Now()
	a.watchdog.Cancel()
	if a.cfg.watchdogTimeout > 0 {
		a.watchdog = a.E.AfterCall(a.cfg.watchdogTimeout, watchdogFired, a, nil, uint64(a.epoch))
	}
	// §4.2 optimization: speculatively ping immediate neighbors before
	// any exploration, so the recovery wave spreads while this node is
	// still dropping its own processor into recovery.
	if a.cfg.SpeculativePing {
		for _, adj := range a.Topo.Adjacency(a.ID) {
			route := a.carve(2)
			route[0], route[1] = a.ID, adj.To
			a.sendPing(adj.To, route)
		}
	}
	// Dropping the processor into recovery: forced Cache Error, state
	// save, switch to uncached execution (§4.2).
	a.busyUntil = a.E.Now()
	a.execInstr(timing.InstrRecoveryEntry, a.recoveryCodeRunning)
}

// resetState clears per-epoch algorithm state. The route arena starts
// afresh: packets of the old epoch may still be carrying its routes.
func (a *Agent) resetState() {
	n := a.Topo.Routers()
	if a.st == nil {
		a.st = newSysState(n, len(a.Topo.Links()))
	} else {
		clear(a.st.up)
		clear(a.st.down)
	}
	a.st.setNode(a.ID, triUp)
	ep := a.ep
	if ep == nil {
		ep = &epochScratch{}
		a.ep = ep
	}
	ep.states, ep.words = nil, nil
	for _, t := range ep.pings {
		t.Cancel()
	}
	clear(ep.pings)
	ep.pings = ep.pings[:0]
	if len(ep.nodes) != n {
		ep.nodes = make([]nodeScratch, n)
	} else {
		clear(ep.nodes)
	}
	ep.explored = resetBools(ep.explored, len(a.Topo.Links()))
	// P1's lists are sized for the common epoch, which probes this node's
	// links and those of a dead neighbor: growing them costs more
	// allocations than the epoch's few sends.
	deg := 2 * len(a.Topo.Adjacency(a.ID))
	ep.probes = slices.Grow(ep.probes[:0], deg+1)
	ep.paths = make([]int, 0, routeBlock)
	clear(ep.bars)
	ep.bars = ep.bars[:0]
	a.probing = 0
	a.cwn = slices.Grow(a.cwn[:0], deg)
	a.cwnRoute = a.cwnRoute[:0]
	// pongQueue is deliberately preserved: pings that arrived just before
	// a restart still deserve an answer from the fresh run.
	a.codeRunning = false
	a.round = 0
	a.merging = false
	a.target = 0
	a.stable = 0
	a.dropP2Scratch()
	a.hint = 0
	a.finalState = nil
	a.view, a.bft, a.own = nil, nil, nil
	if a.flushSeen != nil && a.flushSeen[a.ID] {
		// The last epoch's flush-done fan-out may still be reading
		// its participant list: build this epoch's in a new one.
		a.participants = nil
	}
	a.participants = slices.Grow(a.participants[:0], n)
	a.partSet = resetBools(a.partSet, n)
	a.doomed = false
	a.tree = nil
	a.flushSeen = resetBools(a.flushSeen, n)
	a.flushCount = 0
	a.scanned = false
}

// routeBlock is the route arena's block size in router ids: enough for a
// mesh node's whole epoch of probe, ping, pong and barrier routes.
const routeBlock = 64

// carve returns n ints for a route. Within an epoch they are carved from
// the arena; a route is read-only once built (packets in flight hold it), so
// a full block is left to its routes and a fresh one started, never reused.
// With no epoch running (a finished agent answering a ping) it allocates.
func (a *Agent) carve(n int) []int {
	if a.ep == nil {
		return make([]int, n)
	}
	if cap(a.ep.paths)-len(a.ep.paths) < n {
		a.ep.paths = make([]int, 0, max(n, routeBlock))
	}
	k := len(a.ep.paths)
	a.ep.paths = a.ep.paths[:k+n]
	return a.ep.paths[k : k+n : k+n]
}

// reverse returns route reversed, carved.
func (a *Agent) reverse(route []int) []int {
	if route == nil {
		return nil
	}
	out := a.carve(len(route))
	for i, r := range route {
		out[len(route)-1-i] = r
	}
	return out
}

// resetBools returns b cleared, or a fresh slice if b is not n long.
func resetBools(b []bool, n int) []bool {
	if len(b) != n {
		return make([]bool, n)
	}
	clear(b)
	return b
}

// restartTo abandons the current run and re-executes the algorithm at a
// higher epoch — the §4.1 reaction to additional faults during recovery.
func (a *Agent) restartTo(epoch int) {
	if epoch <= a.epoch && a.phase != PhaseDone {
		return
	}
	a.epoch = epoch
	// Only a run in progress is restarted. An idle agent joining its first
	// recovery through a higher-epoch ping has no report, and a finished
	// one joining the next recovery starts a report of its own: neither
	// counts, and a finished run's report is left as it was delivered.
	done := a.phase == PhaseDone
	if a.report != nil && !done {
		a.report.Restarts++
		a.mRestarts.Inc()
	}
	reason := magic.ReasonPing
	if a.report != nil {
		reason = a.report.Reason
	}
	a.setPhase(PhaseIdle)
	if done {
		a.report = nil // a fresh fault after completion: new report
	}
	a.enter(reason)
}

// execInstr charges n instructions of uncached recovery-code execution and
// then runs fn. Charges serialize on the node's single processor.
func (a *Agent) execInstr(n int, fn func()) {
	a.execTime(sim.Time(n)*a.cfg.UncachedInstr, fn)
}

// execArg charges n instructions, then runs the pre-bound cb(a, nil, u)
// with the epoch and arg packed in u (see tag).
func (a *Agent) execArg(n int, cb sim.Callback, arg int) {
	a.E.AtCall(a.reserve(sim.Time(n)*a.cfg.UncachedInstr), cb, a, nil, a.tag(arg))
}

// tag packs the epoch and a small argument (a probe, node, barrier or round
// number) into a pre-bound callback's u: the epoch in the high half, arg
// in the low.
func (a *Agent) tag(arg int) uint64 { return uint64(a.epoch)<<32 | uint64(uint32(arg)) }

// current reports whether a callback tagged u still applies: the node is
// alive and still at u's epoch.
func (a *Agent) current(u uint64) bool { return !a.dead && a.epoch == int(u>>32) }

// execTime charges a raw duration of node-local work. The event record
// carries the agent, fn and the epoch, so the charge adds no allocation to
// fn's own.
func (a *Agent) execTime(d sim.Time, fn func()) {
	a.E.AtCall(a.reserve(d), runCharged, a, fn, uint64(a.epoch))
}

// runCharged is execTime's pre-bound event: a1 is the agent, a2 the
// continuation, u the epoch the charge began in.
func runCharged(a1, a2 any, u uint64) {
	a := a1.(*Agent)
	if a.dead || a.epoch != int(u) {
		return // node died or superseded by a restart
	}
	a2.(func())()
}

// reserve books d of processor time behind the work already charged and
// returns when it ends.
func (a *Agent) reserve(d sim.Time) sim.Time {
	start := a.E.Now()
	if a.busyUntil > start {
		start = a.busyUntil
	}
	a.busyUntil = start + d
	return a.busyUntil
}

// watchdogFired is the watchdog's pre-bound callback, armed once per epoch
// by enter: a1 is the agent, u the epoch. An agent is stalled only when it
// has neither heard a message of its epoch nor run charged recovery code
// for the whole timeout; until then the check re-arms for the rest of it.
func watchdogFired(a1, _ any, u uint64) {
	a := a1.(*Agent)
	if a.epoch != int(u) || a.phase == PhaseDone || a.phase == PhaseShutdown || a.phase == PhaseIdle {
		return
	}
	if quiet := a.E.Now() - max(a.heard, a.busyUntil); quiet < a.cfg.watchdogTimeout {
		a.watchdog = a.E.AfterCall(a.cfg.watchdogTimeout-quiet, watchdogFired, a, nil, u)
		return
	}
	// No progress: assume an additional failure and restart the algorithm
	// at a higher epoch. The restart wave (pings carry the new epoch)
	// brings everyone else along.
	a.restartTo(a.epoch + 1)
}

// recPacket is one recovery send: the packet and the message it carries
// in one record (pkt.Payload points at msg, pkt.Rec back at the record),
// owned by the agent that sends it.
//
// Ownership: sendRec and broadcast take records from the owner's epoch
// free list and hand &pkt to the fabric; the fabric takes a fan-out's
// (sendFlushDone) through takeFanOut as it materialises the packets. The
// fabric reads nothing of a packet its endpoint has accepted, so a record
// has exactly one release point: the end of the receiving agent's
// handlePacket, which puts it back on its owner's list. A record that does
// not reach that point is never recycled and falls to the garbage
// collector: a packet the fabric destroys (the reliable fabric may retain
// it and resend its message in a fresh packet, which carries no record), a
// packet to a dead controller, and a record whose owner has finished, its
// list gone with its scratch.
type recPacket struct {
	pkt   interconnect.Packet
	msg   recMsg
	owner *Agent // nil for a finished agent's send: never recycled
}

// poisonReleased makes release poison records instead of zeroing them; see
// PoisonReleasedForTest.
var poisonReleased atomic.Bool

// PoisonReleasedForTest makes every released recovery record carry
// impossible field values instead of zeroes, so that any reader still
// holding one after its release point changes the run's results instead of
// going unnoticed. Test-only: results must not depend on it.
func PoisonReleasedForTest(on bool) { poisonReleased.Store(on) }

// release hands r back to its owner's free list, unless the owner has
// finished.
func (r *recPacket) release() {
	a := r.owner
	if a == nil || a.ep == nil {
		return
	}
	*r = recPacket{owner: a}
	if poisonReleased.Load() {
		r.msg = recMsg{Kind: 0xFF, From: -1, Epoch: math.MaxInt32, Round: -1, Target: -1, Hint: -1}
		r.pkt.Src, r.pkt.Dst, r.pkt.Payload = -1, -1, &r.msg
	}
	a.ep.free = append(a.ep.free, r)
}

// takeRec returns a record from the free list, refilling an empty one with
// a block sized for what an agent has out at once (recsPerNeighbour per
// port), so neither P1's pings and pongs nor a round's broadcast take a
// block each. With no epoch running (a finished agent answering a ping or
// a late round) it allocates a record no list will take back.
func (a *Agent) takeRec() *recPacket {
	ep := a.ep
	if ep == nil {
		return &recPacket{}
	}
	if len(ep.free) == 0 {
		n := max(1, recsPerNeighbour*a.Topo.Degree(a.ID)) // a lone router has no ports
		if ep.free == nil {
			ep.free = make([]*recPacket, 0, n)
		}
		blk := make([]recPacket, n)
		for i := range blk {
			blk[i].owner = a
			ep.free = append(ep.free, &blk[i])
		}
	}
	k := len(ep.free) - 1
	r := ep.free[k]
	ep.free = ep.free[:k]
	return r
}

// recsPerNeighbour sizes an agent's blocks of records: a record comes back
// as soon as its receiver has handled it, so per neighbour a round's send
// and the one before it, still in flight, cover what an agent has out.
const recsPerNeighbour = 2

// takeFanOut is the storage callback of an agent's fan-outs: a record
// from the free list of the agent that owns the template's record,
// carrying a copy of the template's message. The fabric takes one per
// packet as it materialises them, most of them records its earlier
// packets' receivers have released.
func takeFanOut(tmpl *interconnect.Packet) *interconnect.Packet {
	t := tmpl.Rec.(*recPacket)
	r := t.owner.takeRec()
	r.msg = t.msg
	r.pkt.Payload, r.pkt.Rec = &r.msg, r
	return &r.pkt
}

// send ships r's message, completed with the sender and epoch, to node to
// over the given source route (nil: follow the tables) and lane.
func (a *Agent) send(r *recPacket, to int, route []int, lane interconnect.Lane) {
	r.msg.From, r.msg.Epoch = a.ID, a.epoch
	r.pkt = interconnect.Packet{
		Src: a.ID, Dst: to, Lane: lane,
		SourceRoute: route, Bytes: r.msg.bytes(), Payload: &r.msg, Rec: r,
	}
	a.Net.Send(&r.pkt)
}

// sendRec ships m to node `to` over the given source route and lane.
func (a *Agent) sendRec(to int, route []int, lane interconnect.Lane, m recMsg) {
	r := a.takeRec()
	r.msg = m
	a.send(r, to, route, lane)
}

// broadcast ships m to every node of to but this one, route(i) giving the
// source route to to[i]: P2's round to the cwn and a barrier's release to
// its children, fan-outs bounded by the node's degree. Each destination
// gets a record, packet, flow and route of its own; what they share is
// what m points at (a round's snapshot), read-only from here on.
func (a *Agent) broadcast(to []int, lane interconnect.Lane, m recMsg, route func(i int) []int) {
	for i, q := range to {
		if q == a.ID {
			continue
		}
		r := a.takeRec()
		r.msg = m
		a.send(r, q, route(i), lane)
	}
}

func (a *Agent) sendPing(to int, route []int) {
	a.sendRec(to, route, interconnect.LaneRecoveryA, recMsg{Kind: kPing})
}

// handlePacket receives recovery-lane packets (and normal-lane recovery
// control such as kFlushDone) forwarded by the controller. Its end is the
// release point of the packet's record.
func (a *Agent) handlePacket(p *interconnect.Packet) {
	if a.dead {
		return
	}
	if m, ok := p.Payload.(*recMsg); ok {
		a.receive(m, p)
	}
	if r, ok := p.Rec.(*recPacket); ok {
		r.release()
	}
}

// receive acts on one recovery message. Nothing it calls keeps m or p: what
// outlives the delivery is copied out.
func (a *Agent) receive(m *recMsg, p *interconnect.Packet) {
	switch {
	case m.Epoch > a.epoch:
		// A newer epoch exists: adopt it and restart. Pings are then
		// answered by the fresh run's pong queue.
		a.restartTo(m.Epoch)
		if m.Kind == kPing {
			a.queuePong(m.From, p.SourceRoute)
		}
		return
	case m.Epoch < a.epoch:
		if m.Kind == kPing {
			// Stale pinger: our pong carries the newer epoch and
			// restarts it.
			a.sendRec(m.From, a.reverse(p.SourceRoute), interconnect.LaneRecoveryB, recMsg{Kind: kPong})
		}
		return
	}
	a.heard = a.E.Now()
	switch m.Kind {
	case kPing:
		a.onPing(m, p)
	case kPong:
		a.onPong(m)
	case kState:
		a.onState(m)
	case kBarrierUp, kBarrierDown:
		a.onBarrierMsg(m)
	case kFlushDone:
		a.onFlushDone(m)
	}
}

// onPing drops an idle node into recovery and answers once the recovery
// code is running (§4.2: a ping reply is evidence the node works).
func (a *Agent) onPing(m *recMsg, p *interconnect.Packet) {
	switch a.phase {
	case PhaseIdle:
		if a.epoch == 0 {
			a.epoch = m.Epoch
		}
		a.queuePong(m.From, p.SourceRoute)
		a.enter(magic.ReasonPing)
	case PhaseInit:
		if a.codeRunning {
			a.sendRec(m.From, a.reverse(p.SourceRoute), interconnect.LaneRecoveryB, recMsg{Kind: kPong})
			return
		}
		// Recovery code not confirmed running yet: answer when it is.
		a.queuePong(m.From, p.SourceRoute)
	case PhaseShutdown:
		// A node that decided to shut down never answers.
	default:
		a.sendRec(m.From, a.reverse(p.SourceRoute), interconnect.LaneRecoveryB, recMsg{Kind: kPong})
	}
}

func (a *Agent) queuePong(to int, pingRoute []int) {
	a.pongQueue = append(a.pongQueue, pongDest{to: to, route: a.reverse(pingRoute)})
}

func (a *Agent) String() string {
	return fmt.Sprintf("agent(%d %v ep=%d)", a.ID, a.phase, a.epoch)
}

// DebugString dumps the agent's progress state for diagnostics; a finished
// or dead agent, which keeps no epoch scratch, has only its String.
func (a *Agent) DebugString() string {
	if a.ep == nil {
		return a.String()
	}
	missing := ""
	if a.phase == PhaseDissemination {
		for _, q := range a.cwn {
			if a.latest(q) == nil {
				missing += fmt.Sprintf(" %d", q)
			}
		}
	}
	bars := ""
	for i := range a.ep.bars {
		if b := &a.ep.bars[i]; b.started && !b.released {
			bars += fmt.Sprintf(" %v(ready=%v ups=%d/%d)", b.key, b.ready, b.ups(), len(b.children))
		}
	}
	return fmt.Sprintf("node %d %v ep=%d probing=%d cwn=%v round=%d/%d stable=%d merging=%v missing=[%s] flush=%d/%d bars=%s",
		a.ID, a.phase, a.epoch, a.probing, a.cwn, a.round, a.target, a.stable, a.merging,
		missing, a.flushCount, len(a.participants), bars)
}
