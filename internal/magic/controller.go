// Package magic models the MAGIC programmable node controller (§2): a
// serialized handler engine that services coherence requests from the local
// processor and the interconnect, plus the fault-containment features the
// paper adds to it (§3, Table 6.1): the node map, NAK counters, memory
// operation timeouts, the firewall, the protocol-memory range check, the
// exception-vector remap, truncated-message handling, firmware assertions,
// and the recovery-mode hooks used by the distributed recovery algorithm.
package magic

import (
	"errors"
	"fmt"
	"slices"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/trace"
)

// Mode is the controller's operating mode.
type Mode int

const (
	// ModeNormal services coherence traffic.
	ModeNormal Mode = iota
	// ModeDrain is a recovering controller's mode, from EnterRecovery to
	// the end of P4: it stands for both the paper's drain mode, while the
	// fabric drains (§4.4), and its flush mode, while the caches flush
	// (§4.5), which behave alike here. It records delivery times for the
	// τ drain agreement, generates no replies or invalidates, and settles
	// each coherence message by one rule (drainFate).
	ModeDrain
	// ModeLoop models a firmware handler stuck in an infinite loop: the
	// controller stops accepting packets and congests the fabric (§3.1).
	ModeLoop
	// ModeDead models a failed node: everything is silently discarded.
	ModeDead
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeDrain:
		return "drain"
	case ModeLoop:
		return "loop"
	case ModeDead:
		return "dead"
	default:
		return "?"
	}
}

// TriggerReason identifies which of the Table 4.1 mechanisms initiated
// recovery.
type TriggerReason int

const (
	ReasonTimeout TriggerReason = iota
	ReasonNAKOverflow
	ReasonAssertion
	ReasonTruncated
	ReasonPing       // dropped into recovery by a neighbor's ping wave
	ReasonFalseAlarm // operator- or overload-triggered, no actual fault
	ReasonCPUDead    // a MAGIC signaled that its local processor died
)

func (r TriggerReason) String() string {
	switch r {
	case ReasonTimeout:
		return "memory operation timeout"
	case ReasonNAKOverflow:
		return "NAK counter overflow"
	case ReasonAssertion:
		return "firmware assertion failure"
	case ReasonTruncated:
		return "truncated packet received"
	case ReasonPing:
		return "recovery ping"
	case ReasonFalseAlarm:
		return "false alarm"
	case ReasonCPUDead:
		return "processor death signal"
	default:
		return "?"
	}
}

// Errors surfaced to the processor.
var (
	// ErrBusError terminates an access to an inaccessible, incoherent,
	// firewalled or range-protected line.
	ErrBusError = errors.New("magic: bus error")
	// ErrAborted completes an access cut short by recovery entry; the
	// issuing code reissues it after recovery.
	ErrAborted = errors.New("magic: aborted by recovery")
)

// Result completes a processor memory operation.
type Result struct {
	Token uint64
	Err   error
}

// Config tunes one controller.
type Config struct {
	// FirewallEnabled turns on the per-page write access control (§3.3).
	FirewallEnabled bool
	// ProtocolMemBytes reserves the low region of the node's own memory
	// for MAGIC code/data; processor writes to it are bus-errored by the
	// range check (§3.3). Zero disables the check.
	ProtocolMemBytes uint64
	// Metrics, when non-nil, receives machine-wide controller counters
	// (firewall/range denials, NAK traffic, timeouts). All controllers of
	// one machine share the registry; instrument names are global, not
	// per-node.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives point events for containment actions
	// (firewall/range/uncached denials, NAK traffic, memory-op timeouts)
	// and recovery triggers. Nil disables tracing at zero cost.
	Trace *trace.Tracer

	// nakLimit is the NAK-counter overflow threshold (Table 4.1):
	// timing.NAKLimit, lowered by a test that overflows it quickly.
	nakLimit int
}

// DefaultConfig returns the paper-calibrated controller: no firewall, no
// protocol-memory range check.
func DefaultConfig() Config {
	return Config{nakLimit: timing.NAKLimit}
}

// mshr tracks one outstanding processor-initiated operation.
type mshr struct {
	seq      uint64
	addr     coherence.Addr
	excl     bool
	hasStore bool
	storeTok uint64
	uncached bool
	udst     int
	uwrite   bool
	upayload any
	cb       func(Result)
	ucb      func(any, error)
	naks     int
	timeout  sim.Timer
	retry    sim.Timer
	// recalled is set when a recall for this line arrives before the
	// exclusive grant does (the recall overtook the grant on another
	// virtual lane); the grant is then written straight back home.
	recalled   bool
	recallHome int
	// invalidated is set when an invalidation overtakes a shared grant;
	// the granted data completes the load but is not cached.
	invalidated bool
	// waiters holds same-line operations merged into this miss (one MSHR
	// per line); they replay through the cache when the miss completes.
	waiters []waiterOp
}

// waiterOp is an operation merged into an outstanding same-line miss.
type waiterOp struct {
	excl     bool
	hasStore bool
	storeTok uint64
	cb       func(Result)
}

// Controller is one node's MAGIC chip.
type Controller struct {
	ID    int
	E     *sim.Engine
	Net   *interconnect.Network
	Space coherence.AddrSpace
	Dir   *coherence.Directory
	Mem   *coherence.Memory
	Cache *coherence.Cache
	cfg   Config

	mode   Mode
	nodeUp coherence.NodeSet
	// memSrv marks nodes that are down in the node map but whose memory/
	// directory bank is still served by a surviving controller (the
	// CPU-fail/memory-survives model): coherence traffic to them flows,
	// even though the node never answers recovery pings.
	memSrv coherence.NodeSet
	// slowFactor multiplies every handler's occupancy; 1 is a healthy
	// engine. The fail-slow fault model raises it to 10-100x without
	// killing the node. Recovery-lane traffic is unaffected (it bypasses
	// the handler engine entirely).
	slowFactor int
	// cpuDead marks the local processor complex (CPU + caches) as failed
	// while the controller and memory bank live on: protocol traffic that
	// needs the dead cache is refused so stale data cannot escape.
	cpuDead bool
	// unit is the failure-unit id of every node; uncached operations from
	// outside the local unit are bus-errored (§3.3). nil disables checks.
	unit []int
	// firewall maps a page base to its write-access list; absent pages
	// are writable by everyone. It stays nil until the first SetFirewall
	// that closes a page.
	firewall map[coherence.Addr]coherence.NodeSet

	input []*interconnect.Packet
	busy  bool
	// orphans holds exclusive data grants that arrived during drain mode
	// after their requesting operation was aborted (§4.2/§4.4): the data
	// is not lost — it is returned home during the P4 flush.
	orphans []*coherence.Message
	// deferred holds, behind a reliable fabric (§6.3), the coherence
	// traffic other than writebacks that reached the controller in drain
	// mode, in arrival order, each in the packet it came in. The §6.3
	// machine loses no message, so drain keeps them rather than
	// discarding them; the switch back to normal mode replays them.
	deferred []*interconnect.Packet

	// mshrs is the table of outstanding operations in issue order, which
	// is also ascending seq order. It is a handful of entries deep (the
	// processor window plus uncached operations), so lookups scan it;
	// mshrFree recycles completed records, minted mshrBlock at a time.
	mshrs    []*mshr
	mshrFree []*mshr
	seq      uint64

	lastNormalDelivery sim.Time

	onTrigger       func(TriggerReason)
	onRecoveryPkt   func(*interconnect.Packet)
	onDeadDrop      func(*coherence.Message)
	uncachedHandler func(src int, payload any) (any, error)

	// Pre-resolved machine-wide metric instruments (nil-safe).
	mFirewallDenied *metrics.Counter
	mRangeDenied    *metrics.Counter
	mNAKsSent       *metrics.Counter
	mNAKsReceived   *metrics.Counter
	mTimeouts       *metrics.Counter
	mSlowHandlers   *metrics.Counter

	// Pre-bound event callbacks (bound once in New): handler dispatch,
	// request completion, timeouts and NAK retries schedule without
	// allocating a closure per event.
	dispatchFn sim.Callback
	completeFn sim.Callback
	timeoutFn  sim.Callback
	retryFn    sim.Callback
}

// New wires a controller to its node's state and registers it as the
// network endpoint for node id.
func New(e *sim.Engine, net *interconnect.Network, id int, space coherence.AddrSpace,
	dir *coherence.Directory, mem *coherence.Memory, cache *coherence.Cache, cfg Config) *Controller {
	c := &Controller{
		ID: id, E: e, Net: net, Space: space,
		Dir: dir, Mem: mem, Cache: cache, cfg: cfg,
		nodeUp:     coherence.NewNodeSet(space.Nodes),
		memSrv:     coherence.NewNodeSet(space.Nodes),
		slowFactor: 1,
	}
	c.dispatchFn = c.dispatchEv
	c.completeFn = c.completeEv
	c.timeoutFn = c.timeoutEv
	c.retryFn = c.retryEv
	for i := 0; i < space.Nodes; i++ {
		c.nodeUp.Add(i)
	}
	c.mFirewallDenied = cfg.Metrics.Counter("magic.firewall_denied")
	c.mRangeDenied = cfg.Metrics.Counter("magic.range_denied")
	c.mNAKsSent = cfg.Metrics.Counter("magic.naks_sent")
	c.mNAKsReceived = cfg.Metrics.Counter("magic.naks_received")
	c.mTimeouts = cfg.Metrics.Counter("magic.mem_op_timeouts")
	c.mSlowHandlers = cfg.Metrics.Counter("magic.slow_handlers")
	net.SetEndpoint(id, c)
	return c
}

// Mode returns the controller's current mode.
func (c *Controller) Mode() Mode { return c.mode }

// SetMode switches the operating mode. Entering an accepting mode retries
// blocked deliveries. Entering normal mode replays what drain deferred;
// entering dead or loop mode discards it, as handle discards in those modes.
func (c *Controller) SetMode(m Mode) {
	c.mode = m
	switch {
	case len(c.deferred) == 0:
	case m == ModeNormal:
		c.replayDeferred()
	case m == ModeDead, m == ModeLoop:
		for _, p := range c.deferred {
			c.discarded(p.Payload.(*coherence.Message))
		}
		c.deferred = nil
	}
	if m != ModeLoop {
		c.Net.NodeReady(c.ID)
	}
}

// replayDeferred puts the messages drain deferred at the head of the input
// queue, in arrival order, where each runs through the normal handlers and
// is charged its occupancy. The liveness scan has run by now: a message
// from a node the node map marks down (and whose memory bank nothing
// serves) is dropped through the dead-drop hook, and sendMsg drops any
// reply bound for one the same way.
func (c *Controller) replayDeferred() {
	kept := c.deferred[:0]
	for _, p := range c.deferred {
		if c.reachable(p.Src) {
			kept = append(kept, p)
		} else {
			c.discarded(p.Payload.(*coherence.Message))
		}
	}
	clear(c.deferred[len(kept):])
	c.input = append(kept, c.input...)
	c.deferred = nil
	c.process()
}

// SetTriggerHandler registers the recovery-initiation callback invoked on
// the Table 4.1 trigger conditions.
func (c *Controller) SetTriggerHandler(fn func(TriggerReason)) { c.onTrigger = fn }

// SetRecoveryHandler registers the receiver for recovery packets: those of
// the recovery lanes at arrival, a normal-lane one (the P4 flush-done) in
// its turn in the input queue.
func (c *Controller) SetRecoveryHandler(fn func(*interconnect.Packet)) { c.onRecoveryPkt = fn }

// SetDeadDropHandler registers an observer for coherence messages the
// controller consumes without acting on (dead mode, drain mode, recovery
// entry): a discarded data-carrying message may have held a line's only
// valid copy. The verification oracle subscribes here.
func (c *Controller) SetDeadDropHandler(fn func(*coherence.Message)) { c.onDeadDrop = fn }

// discarded reports a consumed-but-unprocessed message to the oracle hook.
func (c *Controller) discarded(msg *coherence.Message) {
	if c.onDeadDrop != nil {
		c.onDeadDrop(msg)
	}
}

// SetUncachedHandler registers the service invoked for uncached operations
// arriving from other nodes (the Hive RPC doorbell).
func (c *Controller) SetUncachedHandler(fn func(src int, payload any) (any, error)) {
	c.uncachedHandler = fn
}

// SetFailureUnits installs the node→failure-unit map used for the
// cross-unit uncached-access check.
func (c *Controller) SetFailureUnits(unit []int) { c.unit = unit }

// SetNodeUp updates the node map (§3.1). Recovery calls this on every
// functioning node after dissemination.
func (c *Controller) SetNodeUp(id int, up bool) { setNode(c.nodeUp, id, up) }

// NodeUp reads the node map.
func (c *Controller) NodeUp(id int) bool { return c.nodeUp.Has(id) }

// SetMemReachable marks a down node's memory/directory bank as still
// served (the CPU-fail/memory-survives model). Recovery installs it next
// to the node map after dissemination; clearing the node map entry back to
// up clears the distinction naturally, since reachable() ORs the two.
func (c *Controller) SetMemReachable(id int, ok bool) { setNode(c.memSrv, id, ok) }

// MemReachable reports whether node id's memory bank is served despite the
// node being down in the node map.
func (c *Controller) MemReachable(id int) bool { return c.memSrv.Has(id) }

// reachable reports whether coherence traffic to node id has somewhere to
// go: the node is up, or its memory bank survived its processor.
func (c *Controller) reachable(id int) bool { return c.nodeUp.Has(id) || c.memSrv.Has(id) }

// setNode adds id to a node map when on is set and removes it otherwise.
func setNode(m coherence.NodeSet, id int, on bool) {
	if on {
		m.Add(id)
	} else {
		m.Remove(id)
	}
}

// SetSlowFactor degrades (or restores) the handler engine: every handler's
// occupancy is multiplied by factor. Values below 1 are clamped to 1.
func (c *Controller) SetSlowFactor(factor int) {
	if factor < 1 {
		factor = 1
	}
	c.slowFactor = factor
}

// CPUDied models the CPU-fail/memory-survives fault: the node's processor
// complex (CPU and caches) fails while the controller and its memory/
// directory bank keep serving coherence traffic. Outstanding processor-side
// operations are dropped without completion — their callbacks have nowhere
// to go — and from here on the protocol handlers refuse any transaction
// that would need the dead cache (see handleRecall/handleReply), leaving
// such transactions pending for the requester's containment machinery.
func (c *Controller) CPUDied() {
	c.cpuDead = true
	for _, m := range c.mshrs {
		m.timeout.Cancel()
		m.retry.Cancel()
	}
	c.dropAllMSHRs()
}

// SetFirewall installs the write-access list for a page (nil opens it).
func (c *Controller) SetFirewall(page coherence.Addr, writers coherence.NodeSet) {
	if writers == nil {
		delete(c.firewall, page.Page())
		return
	}
	if c.firewall == nil {
		c.firewall = make(map[coherence.Addr]coherence.NodeSet)
	}
	c.firewall[page.Page()] = writers
}

// firewallAllows reports whether node req may fetch lines of addr exclusive.
func (c *Controller) firewallAllows(addr coherence.Addr, req int) bool {
	if !c.cfg.FirewallEnabled {
		return true
	}
	w, ok := c.firewall[addr.Page()]
	if !ok {
		return true
	}
	return w.Has(req)
}

// rangeDenied reports whether the processor-initiated write to addr hits the
// protocol-memory range check of the home node.
func (c *Controller) rangeDenied(addr coherence.Addr) bool {
	if c.cfg.ProtocolMemBytes == 0 {
		return false
	}
	home := c.Space.Home(addr)
	base := c.Space.Base(home)
	return uint64(addr-base) < c.cfg.ProtocolMemBytes
}

// LastNormalDelivery returns the time the controller last consumed a
// normal-lane packet; the drain agreement's τ votes are based on it.
func (c *Controller) LastNormalDelivery() sim.Time { return c.lastNormalDelivery }

// FailAssertion models a firmware assertion tripping (Table 4.1).
func (c *Controller) FailAssertion() { c.trigger(ReasonAssertion) }

func (c *Controller) trigger(r TriggerReason) {
	c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "trigger", 0, int64(r), 0)
	if c.onTrigger != nil {
		c.onTrigger(r)
	}
}

// drainFate is what a controller in drain mode does with a coherence message.
type drainFate uint8

const (
	fateFold    drainFate = iota // queue it, then fold it home (handlePut)
	fateOrphan                   // queue it, then stash it for the P4 flush
	fateDefer                    // keep it for replay in normal mode
	fateDiscard                  // consume it, through the dead-drop hook
)

// drainFate is the drain-mode rule (§4.4) that Accept, handle and
// EnterRecovery apply: controllers keep fielding messages while the fabric
// drains and the caches flush, but requests no longer generate replies. A
// writeback carries a line's only valid copy and is folded home. Behind a
// reliable fabric (§6.3) nothing is lost or flushed, so anything else is
// deferred. Otherwise an exclusive grant whose operation recovery aborted
// holds the line's only valid copy too and is stashed; the rest is
// discarded.
func (c *Controller) drainFate(t coherence.MsgType) drainFate {
	switch {
	case t == coherence.MsgPut:
		return fateFold
	case c.Net.Reliable():
		return fateDefer
	case t == coherence.MsgDataExcl:
		return fateOrphan
	}
	return fateDiscard
}

// Accept implements interconnect.Endpoint.
func (c *Controller) Accept(p *interconnect.Packet) bool {
	switch c.mode {
	case ModeDead:
		// Silently discarded (§4.1). A discarded data-carrying message
		// may have held a line's only valid copy; the harness oracle
		// observes it through the dead-drop hook.
		if msg, ok := p.Payload.(*coherence.Message); ok {
			c.discarded(msg)
		}
		return true
	case ModeLoop:
		return false // controller stopped accepting; fabric backs up
	}
	if p.Lane.IsRecovery() {
		if c.onRecoveryPkt != nil {
			c.onRecoveryPkt(p)
		}
		return true
	}
	// Normal-lane traffic.
	c.lastNormalDelivery = c.E.Now()
	if p.Truncated {
		// §3.1: MAGIC completed the message with parity-error bits set;
		// the next dispatch is the error handler, which triggers
		// recovery. The data is unusable and dropped.
		c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "truncated-seen", p.Flow(), int64(p.Src), int64(p.Lane))
		c.trigger(ReasonTruncated)
		return true
	}
	// Normal-lane recovery control traffic (the P4 flush barrier's
	// flush-done) queues like everything else: it travels behind the
	// sender's writebacks on the same channels to exploit in-order delivery
	// (§4.5), and that order must hold through this queue too, or a
	// slowed home would sweep its directory before they apply.
	if msg, isCoh := p.Payload.(*coherence.Message); isCoh && c.mode == ModeDrain {
		switch c.drainFate(msg.Type) {
		case fateDefer:
			c.deferred = append(c.deferred, p)
			return true
		case fateDiscard:
			c.discarded(msg)
			return true
		}
	}
	if len(c.input) >= timing.InputQueue {
		return false
	}
	c.input = append(c.input, p)
	c.process()
	return true
}

// process runs the dispatch loop: one handler at a time, each charged its
// occupancy before its effects apply.
func (c *Controller) process() {
	if c.busy || len(c.input) == 0 {
		return
	}
	// Pop by shifting in place: the queue is at most InputQueue deep, and
	// reslicing from the front would throw its capacity away.
	p := c.input[0]
	c.input = slices.Delete(c.input, 0, 1)
	c.Net.NodeReady(c.ID) // freed an input slot
	msg, ok := p.Payload.(*coherence.Message)
	if !ok {
		// Recovery control traffic reaches the agent in its place in the
		// queue: everything that arrived before it has been handled.
		if c.onRecoveryPkt != nil {
			c.onRecoveryPkt(p)
		}
		c.process()
		return
	}
	c.busy = true
	c.E.AfterCall(c.occupancy(msg), c.dispatchFn, p, nil, 0)
}

// dispatchEv fires when a handler's occupancy elapses: apply the handler's
// effects, hand the packet's record back to the wire pool — this is its
// one release point — and continue the dispatch loop.
func (c *Controller) dispatchEv(a1, _ any, _ uint64) {
	p := a1.(*interconnect.Packet)
	c.busy = false
	if !c.handle(p) {
		releaseWire(p)
	}
	c.process()
}

// completeEv invokes a completion callback (a1) with a token result (u),
// or with an error result when a2 is non-nil.
func (c *Controller) completeEv(a1, a2 any, u uint64) {
	cb := a1.(func(Result))
	if a2 != nil {
		cb(Result{Err: a2.(error)})
		return
	}
	cb(Result{Token: u})
}

// timeoutEv fires a memory-op timeout for MSHR sequence u; completed
// operations drop their MSHR, which makes a raced timeout a no-op.
func (c *Controller) timeoutEv(_, _ any, u uint64) {
	m := c.findMSHR(u)
	if m == nil {
		return
	}
	c.mTimeouts.Inc()
	c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "memop-timeout", 0, int64(m.addr), 0)
	c.trigger(ReasonTimeout)
}

// retryEv reissues a NAKed request for MSHR sequence u if it is still
// outstanding.
func (c *Controller) retryEv(_, _ any, u uint64) {
	if m := c.findMSHR(u); m != nil {
		c.sendRequest(m)
	}
}

// occupancy returns the handler execution time for msg (§3.1: common
// handlers take ~120 ns; the firewall check adds cycles to intercell write
// misses; invalidation fan-out costs per destination).
func (c *Controller) occupancy(msg *coherence.Message) sim.Time {
	occ := timing.HandlerCommon
	switch msg.Type {
	case coherence.MsgGetX:
		if c.cfg.FirewallEnabled && c.unit != nil &&
			c.unit[msg.Req] != c.unit[c.ID] {
			occ += timing.HandlerFirewallCheck
		}
		if e := c.Dir.Peek(msg.Addr); e != nil && e.State == coherence.DirShared {
			occ += sim.Time(e.Sharers.Count()) * timing.HandlerPerInvalidation
		}
	case coherence.MsgUncachedRead, coherence.MsgUncachedWrite:
		occ += timing.HandlerRecoveryOp
	}
	if c.slowFactor > 1 {
		occ *= sim.Time(c.slowFactor)
		c.mSlowHandlers.Inc()
	}
	return occ
}

func (c *Controller) String() string {
	return fmt.Sprintf("magic(node=%d mode=%v)", c.ID, c.mode)
}
