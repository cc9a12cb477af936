package interconnect

import (
	"fmt"
	"sync/atomic"

	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// Config tunes the fabric model.
type Config struct {
	// Reliable enables HAL-style hardware end-to-end reliability (§6.3):
	// normal-lane packets destroyed by a failure are held by the fabric
	// and retransmitted once RetransmitLost is called after connectivity
	// is restored. Recovery lanes are never retransmitted (the recovery
	// algorithm has its own timeouts and retries).
	Reliable bool
	// Metrics, when non-nil, receives fabric counters (per-lane traffic,
	// truncations, black holes, backpressure stalls). Nil disables
	// reporting at zero cost: the instruments are nil-safe.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives per-packet lifecycle point events
	// (inject, per-hop route, deliver, every kind of drop) linked by the
	// packet's flow id while packet tracing is on (see TracePackets). Nil
	// disables tracing at zero cost.
	Trace *trace.Tracer
	// Partition, when non-nil, spreads the fabric across the region-local
	// engines of a partitioned simulation (see partition.go). Nil keeps
	// the classic single-engine fabric, bit-for-bit.
	Partition *Partition
	// Tables, when non-nil, are the pristine routing tables to install at
	// construction instead of the topology's defaults — the hook routing
	// strategies use to own pristine-table generation.
	Tables topology.Tables
}

// DefaultConfig returns the standard fabric: unreliable, untraced, on one
// engine.
func DefaultConfig() Config { return Config{} }

// channel is one directed (router, port, lane) buffer: the sending side of a
// virtual channel. Packets at the head either advance into the next router's
// chosen channel (or node) or block there, exerting backpressure. All
// channels live in Network.chans; a channel's (port, lane) is its position
// there (see Network.channel).
type channel struct {
	// router is the sending router, to the router at the far end of the
	// port's link, and link that link's id: Topo.Adjacency(router)[port],
	// copied at construction so a hop never leaves the flat arrays.
	router, to, link int32
	serving, blocked bool
	q                []*Packet
	waiters          []*channel // channels blocked waiting for space here
	// inTransit is the packet currently being serviced across this
	// channel's link, used to truncate the in-flight packet on link
	// failure. One slot suffices: serving serialises the link, so kick
	// never starts a second service before arrive (or launchEv) has
	// cleared the first. Tracking it per channel (rather than per link)
	// keeps every slot owned by exactly one region in partitioned mode: a
	// boundary link's two directions belong to different regions.
	inTransit *Packet
	// buf is q's first backing array (New points q at it). A burst that
	// outgrows it moves q to the heap; dropHead moves it back.
	buf [timing.LaneBuffer]*Packet
}

// shrinkFloor is the smallest backing-array capacity dropHead will shrink.
// Steady-state lane queues stay below it (LaneBuffer is 4), so the per-flit
// hot path never reallocates; only queues inflated by an elastic-injection
// burst pay the copies, and those halve away in O(log cap) steps.
const shrinkFloor = 16

// push appends p to the queue. A queue that grows moves to a new backing
// array; if it grew off the inline one, that must not keep its packets alive.
func (ch *channel) push(p *Packet) {
	grows := len(ch.q) == cap(ch.q)
	ch.q = append(ch.q, p)
	if grows {
		clear(ch.buf[:])
	}
}

// dropHead removes the head packet by shifting in place: lane queues are a
// few entries deep, and keeping the backing array's front intact lets
// enqueues reuse its capacity instead of reallocating every round trip.
// Burst-inflated backing arrays are released once the queue drains below a
// quarter of their capacity — to a half-sized array, or to the inline one
// when the rest fits — so a congestion spike does not pin peak-sized arrays
// for the rest of the run.
func (ch *channel) dropHead() {
	n := len(ch.q) - 1
	copy(ch.q, ch.q[1:])
	ch.q[n] = nil
	ch.q = ch.q[:n]
	if c := cap(ch.q); c > shrinkFloor && n < c/4 {
		q := ch.buf[:0]
		if n > timing.LaneBuffer {
			q = make([]*Packet, 0, c/2)
		}
		ch.q = append(q, ch.q...)
	}
}

// routerState is the mutable state of one SPIDER router.
type routerState struct {
	failed bool
	// discardLocal makes the router drop packets destined to its own
	// attached node: the isolation step for a node whose controller has
	// stopped accepting packets (firmware infinite loop, §3.1).
	discardLocal bool
	// chanBase is the index in Network.chans of this router's (port 0,
	// lane 0) channel; the rest follow port-major.
	chanBase int32
	// discard[port] makes the router silently drop packets routed to
	// that port: the interconnect-recovery isolation step (§4.4).
	discard []bool
	// table is this router's next-hop port per destination: a row of the
	// pristine tables until SetRouterTable installs a private copy.
	table []topology.Port
	// nodeWaiters are channels blocked delivering to this router's node.
	nodeWaiters []*channel
}

// Network is the whole fabric.
type Network struct {
	E    *sim.Engine
	Topo *topology.Topology
	cfg  Config

	routers []routerState
	// chans holds every channel of the fabric, router-major then
	// port-major then by lane, so the NumLanes channels of a port and the
	// ports of a router are neighbours in memory.
	chans     []channel
	linkUp    []bool
	endpoints []Endpoint
	// dropped counts the packets drop has destroyed. In partitioned mode
	// concurrent region workers share it; the adds commute, so the total is
	// identical at any worker count.
	dropped atomic.Uint64

	// OnLost, if set, observes every packet whose content is destroyed
	// by the fabric: drops of any kind and in-flight truncations. The
	// machine-level verification oracle uses it to know which lines may
	// legitimately have become incoherent.
	OnLost func(p *Packet)
	// retained holds packets awaiting end-to-end retransmission in
	// reliable mode.
	retained []*Packet

	// Metric instruments, pre-resolved in New so the hot paths avoid map
	// lookups. All are nil-safe when no registry is configured.
	mLanePackets [NumLanes]*metrics.Counter
	mLaneFlits   [NumLanes]*metrics.Counter
	mTruncated   *metrics.Counter
	mBlackholed  *metrics.Counter
	mStalls      *metrics.Counter
	mTransient   *metrics.Counter
	mLinkHeals   *metrics.Counter

	// flowSeq numbers packets as they are injected; the sequence doubles
	// as the trace flow id and as a deterministic order for packets
	// recovered from unordered sets (see FailLink). Partitioned fabrics
	// use flowSeqR instead: one counter per region, region-tagged in the
	// high bits, so concurrent injections never contend and ids stay a
	// pure function of each region's deterministic execution.
	flowSeq  uint64
	flowSeqR []uint64

	pktTrace *trace.Tracer // cfg.Trace while packet points are recorded

	// Pre-bound event callbacks: the method values are bound once in New
	// so the per-flit hop, loopback-delivery and head-drop schedulings
	// allocate nothing.
	arriveFn   sim.Callback
	deliverFn  sim.Callback
	headDropFn sim.Callback
	launchFn   sim.Callback
	ingressFn  sim.Callback
	retryFn    sim.Callback
}

// tracePkt records one packet-lifecycle trace point at the given router or
// node. No-op (and allocation-free) when tracing is disabled.
func (n *Network) tracePkt(name string, at int, p *Packet) {
	if tr := n.pktTrace; tr != nil {
		tr.Point(n.now(at), at, "pkt", name, p.flow, int64(p.Dst), int64(p.Lane))
	}
}

// TracePackets turns packet points on or off; a new fabric records them.
// The machine turns them off once a machine-wide recovery completes and on
// again at the next fault injection.
func (n *Network) TracePackets(on bool) {
	n.pktTrace = nil
	if on {
		n.pktTrace = n.cfg.Trace
	}
}

// drop destroys p at router (or node) at: it records the name trace point
// (one of the drop-* kinds), reports the loss and counts it in Dropped.
// Every fabric drop goes through here.
func (n *Network) drop(name string, at int, p *Packet) {
	n.tracePkt(name, at, p)
	n.lost(p)
	n.dropped.Add(1)
}

// Dropped reports how many packets the fabric has destroyed: black-holed by
// a failed link, sunk by a failed router, unroutable, discarded by
// isolation, head-dropped on a recovery lane, or bound for an isolated
// node. Truncated packets still arrive and are not counted. Read it between
// partition windows or after the run.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

func (n *Network) lost(p *Packet) {
	if n.cfg.Reliable && !p.Lane.IsRecovery() && !p.retried {
		// HAL-style end-to-end reliability: the sender's hardware holds
		// a copy and will resend once connectivity is restored (§6.3).
		n.retained = append(n.retained, p)
		return
	}
	if n.OnLost != nil {
		n.OnLost(p)
	}
}

// RetainedLost reports how many packets await retransmission.
func (n *Network) RetainedLost() int { return len(n.retained) }

// RetransmitLost resends every retained packet whose destination is still
// reachable (per the supplied node map); the rest are reported through
// OnLost as real losses. It returns the number resent. Called once after
// interconnect recovery has restored connectivity (§6.3).
func (n *Network) RetransmitLost(nodeUp func(int) bool) int {
	pkts := n.retained
	n.retained = nil
	sent := 0
	for _, p := range pkts {
		fresh := &Packet{
			Src: p.Src, Dst: p.Dst, Lane: p.Lane,
			Payload: p.Payload, Bytes: p.Bytes, retried: true,
		}
		if nodeUp == nil || !nodeUp(p.Dst) {
			n.lost(fresh) // destination died with the fault: a real loss
			continue
		}
		sent++
		n.Send(fresh)
	}
	return sent
}

// New builds a fabric over topo with the topology's default deadlock-free
// routing tables installed in every router.
func New(e *sim.Engine, topo *topology.Topology, cfg Config) *Network {
	n := &Network{
		E:         e,
		Topo:      topo,
		cfg:       cfg,
		routers:   make([]routerState, topo.Routers()),
		linkUp:    make([]bool, len(topo.Links())),
		endpoints: make([]Endpoint, topo.Routers()),
		pktTrace:  cfg.Trace,
	}
	n.arriveFn = n.arriveEv
	n.deliverFn = n.deliverEv
	n.headDropFn = n.headDropEv
	n.launchFn = n.launchEv
	n.ingressFn = n.ingressEv
	n.retryFn = n.retryEv
	if pt := cfg.Partition; pt != nil {
		n.flowSeqR = make([]uint64, len(pt.Engines))
	}
	for i := range n.linkUp {
		n.linkUp[i] = true
	}
	for l := Lane(0); l < NumLanes; l++ {
		n.mLanePackets[l] = cfg.Metrics.Counter("interconnect.lane." + l.String() + ".packets")
		n.mLaneFlits[l] = cfg.Metrics.Counter("interconnect.lane." + l.String() + ".flits")
	}
	n.mTruncated = cfg.Metrics.Counter("interconnect.truncated_packets")
	n.mBlackholed = cfg.Metrics.Counter("interconnect.blackholed_packets")
	n.mStalls = cfg.Metrics.Counter("interconnect.backpressure_stalls")
	n.mTransient = cfg.Metrics.Counter("interconnect.transient_link_windows")
	n.mLinkHeals = cfg.Metrics.Counter("interconnect.link_heals")
	tables := cfg.Tables
	if tables == nil {
		tables = topology.DefaultTables(topo)
	}
	if len(tables) != len(n.routers) {
		panic(fmt.Sprintf("interconnect: tables for %d routers on a %d-router topology", len(tables), len(n.routers)))
	}
	ports := 2 * len(topo.Links())
	n.chans = make([]channel, ports*int(NumLanes))
	discard := make([]bool, ports)
	base := 0
	for r := range n.routers {
		adj := topo.Adjacency(r)
		if len(adj) > topology.MaxDegree {
			panic(fmt.Sprintf("interconnect: router %d has %d ports, a table entry names at most %d", r, len(adj), topology.MaxDegree))
		}
		checkRow(topo, r, tables[r])
		rs := &n.routers[r]
		rs.chanBase = int32(base)
		rs.discard, discard = discard[:len(adj):len(adj)], discard[len(adj):]
		rs.table = tables[r]
		for _, a := range adj {
			for l := Lane(0); l < NumLanes; l++ {
				ch := &n.chans[base]
				ch.router, ch.to, ch.link = int32(r), int32(a.To), int32(a.Link)
				ch.q = ch.buf[:0]
				base++
			}
		}
	}
	return n
}

// checkRow panics unless row is a well-formed next-hop row for router r: one
// entry per router, each PortLocal, -1 or one of r's ports. A malformed row
// would otherwise surface as an index panic on whichever hop first used it.
func checkRow(topo *topology.Topology, r int, row []topology.Port) {
	if len(row) != topo.Routers() {
		panic(fmt.Sprintf("interconnect: router %d table has %d entries, want %d", r, len(row), topo.Routers()))
	}
	deg := topo.Degree(r)
	for d, p := range row {
		if int(p) >= deg || p < topology.PortLocal {
			panic(fmt.Sprintf("interconnect: router %d table sends destination %d to port %d; the router has %d ports", r, d, p, deg))
		}
	}
}

// channel returns the sending channel of (router r, port, lane).
func (n *Network) channel(r, port int, lane Lane) *channel {
	return &n.chans[int(n.routers[r].chanBase)+port*int(NumLanes)+int(lane)]
}

// portChans returns the NumLanes channels of router r's port.
func (n *Network) portChans(r, port int) []channel {
	return n.routerChans(r)[port*int(NumLanes):][:NumLanes]
}

// routerChans returns all of router r's channels.
func (n *Network) routerChans(r int) []channel {
	return n.chans[n.routers[r].chanBase:][:n.Topo.Degree(r)*int(NumLanes)]
}

// SetEndpoint attaches the node controller for node id.
func (n *Network) SetEndpoint(id int, ep Endpoint) { n.endpoints[id] = ep }

// SetRouterTable installs a new next-hop row on router r (one destination
// entry per node). Used by interconnect recovery after the drain (§4.4).
func (n *Network) SetRouterTable(r int, row []topology.Port) {
	checkRow(n.Topo, r, row)
	n.routers[r].table = append([]topology.Port(nil), row...)
}

// RouterTable returns a copy of router r's installed next-hop row, for
// post-recovery deadlock-freedom verification.
func (n *Network) RouterTable(r int) []topology.Port {
	return append([]topology.Port(nil), n.routers[r].table...)
}

// SetDiscard reprograms router r to discard (or stop discarding) traffic
// routed through port p — the isolation step of interconnect recovery. Any
// packets already queued toward that port are dropped, which is what lets
// stalled traffic behind them make forward progress (§4.4).
func (n *Network) SetDiscard(r, p int, on bool) {
	n.routers[r].discard[p] = on
	if !on {
		return
	}
	chans := n.portChans(r, p)
	for i := range chans {
		ch := &chans[i]
		if ch.serving {
			// The head packet is mid-flight; let it finish (it will
			// be re-checked on arrival). Drop the rest.
			if len(ch.q) > 1 {
				for _, pk := range ch.q[1:] {
					n.drop("drop-isolation", r, pk)
				}
				ch.q = ch.q[:1]
			}
		} else {
			for _, pk := range ch.q {
				n.drop("drop-isolation", r, pk)
			}
			ch.q = ch.q[:0]
			ch.blocked = false
		}
		n.wakeWaiters(ch)
	}
}

// SetDiscardLocal reprograms router r to drop packets destined to its own
// node. Deliveries currently blocked on the node are retried and dropped,
// which unclogs the fabric behind a controller stuck in an infinite loop.
func (n *Network) SetDiscardLocal(r int, on bool) {
	n.routers[r].discardLocal = on
	if on {
		n.wakeNodeWaiters(r)
	}
}

// FailRouter kills router r: its queued packets are lost and it sinks all
// future traffic (§4.1: a router failure is the failure of the router; we do
// not also fail its links here — callers model a cabinet loss as explicit
// combinations of router and link failures).
func (n *Network) FailRouter(r int) {
	rs := &n.routers[r]
	if rs.failed {
		return
	}
	rs.failed = true
	chans := n.routerChans(r)
	for i := range chans {
		ch := &chans[i]
		for _, pk := range ch.q {
			n.drop("drop-router", r, pk)
		}
		ch.q = ch.q[:0]
		ch.blocked = false
		n.wakeWaiters(ch)
	}
	// Channels blocked delivering into this node will retry, find the
	// router failed, and sink their packets.
	n.wakeNodeWaiters(r)
}

// FailLink kills link l. A packet currently being serviced across the link
// is truncated and continues to its destination (§3.1); everything else that
// later tries to traverse the link is silently sunk ("black hole", §4.1).
func (n *Network) FailLink(l int) {
	if !n.linkUp[l] {
		return
	}
	n.linkUp[l] = false
	// In-transit tracking lives on the link's sending channels (one per
	// direction and lane, one slot each). Process their packets in
	// injection order so retention (reliable mode) and trace points come
	// out in a deterministic sequence.
	var victims [2 * int(NumLanes)]*channel
	nv := 0
	lk := n.Topo.Links()[l]
	for _, r := range [2]int{lk.A, lk.B} {
		p := n.Topo.PortTo(r, lk.A+lk.B-r)
		if p < 0 {
			continue
		}
		chans := n.portChans(r, p)
		for c := range chans {
			ch := &chans[c]
			if ch.inTransit == nil {
				continue
			}
			i := nv
			for ; i > 0 && victims[i-1].inTransit.flow > ch.inTransit.flow; i-- {
				victims[i] = victims[i-1]
			}
			victims[i] = ch
			nv++
		}
	}
	for _, ch := range victims[:nv] {
		pkt := ch.inTransit
		pkt.Truncated = true
		n.mTruncated.Inc()
		n.tracePkt("truncate", int(ch.to), pkt)
		n.lost(pkt)
	}
}

// FailLinkTransient makes link l misbehave exactly like a failed link —
// the in-flight packets are truncated, later traversals are black-holed —
// but only for the given window of simulated time, after which the link
// heals and carries traffic normally again. No-op if the link is already
// down (a transient fault on a dead link adds nothing). The heal event is
// scheduled on the engine of the link's A-side region, which keeps the
// window deterministic at any partition worker count once injection has
// forced global interleaving.
func (n *Network) FailLinkTransient(l int, window sim.Time) {
	if !n.linkUp[l] {
		return
	}
	n.mTransient.Inc()
	n.FailLink(l)
	lk := n.Topo.Links()[l]
	n.eng(lk.A).After(window, func() { n.healLink(l) })
}

// healLink restores a link downed by a transient window and restarts
// service on its sending channels in both directions. Packets queued
// behind a blocked head survive the window intact; everything that tried
// to traverse the link while it was down is already accounted as lost.
func (n *Network) healLink(l int) {
	if n.linkUp[l] {
		return
	}
	n.linkUp[l] = true
	n.mLinkHeals.Inc()
	lk := n.Topo.Links()[l]
	for _, r := range [2]int{lk.A, lk.B} {
		p := n.Topo.PortTo(r, lk.A+lk.B-r)
		if p < 0 || n.routers[r].failed {
			continue
		}
		chans := n.portChans(r, p)
		for c := range chans {
			n.kick(&chans[c])
		}
	}
}

// InFlight reports the number of packets anywhere in the fabric, for tests
// and drain instrumentation.
func (n *Network) InFlight() int {
	c := 0
	for i := range n.chans {
		c += len(n.chans[i].q)
	}
	return c
}

// Send injects p at its source router. Injection always succeeds: the MAGIC
// outbox is modeled as elastic, so congestion manifests downstream in the
// fabric rather than at the injection point.
func (n *Network) Send(p *Packet) {
	n.mLanePackets[p.Lane].Inc()
	n.mLaneFlits[p.Lane].Add(uint64(flits(p)))
	p.Injected = n.now(p.Src)
	if p.flow == 0 {
		if pt := n.cfg.Partition; pt != nil {
			reg := pt.Of[p.Src]
			n.flowSeqR[reg]++
			p.flow = uint64(reg+1)<<regionFlowShift | n.flowSeqR[reg]
		} else {
			n.flowSeq++
			p.flow = n.flowSeq
		}
	}
	n.tracePkt("inject", p.Src, p)
	if p.SourceRoute != nil {
		if len(p.SourceRoute) == 0 || p.SourceRoute[0] != p.Src {
			panic(fmt.Sprintf("interconnect: bad source route %v from %d", p.SourceRoute, p.Src))
		}
		p.hop = 0
	}
	if p.Dst == p.Src && (p.SourceRoute == nil || len(p.SourceRoute) == 1) {
		n.eng(p.Src).AfterCall(timing.LoopbackDelay, n.deliverFn, p, nil, 0)
		return
	}
	if n.routers[p.Src].failed {
		n.drop("drop-router", p.Src, p)
		return
	}
	port, ok := n.nextPort(p.Src, p)
	if !ok {
		return // counted by nextPort
	}
	ch := n.channel(p.Src, port, p.Lane)
	ch.push(p) // elastic injection
	n.kick(ch)
}

// nextPort picks the output port at router r for packet p, applying source
// routes, tables, discard configuration and dead-end accounting. ok=false
// means the packet was dropped.
func (n *Network) nextPort(r int, p *Packet) (port int, ok bool) {
	if p.SourceRoute != nil {
		if p.hop+1 >= len(p.SourceRoute) {
			n.drop("drop-noroute", r, p)
			return 0, false
		}
		next := p.SourceRoute[p.hop+1]
		port = n.Topo.PortTo(r, next)
		if port < 0 {
			n.drop("drop-noroute", r, p)
			return 0, false
		}
	} else {
		port = int(n.routers[r].table[p.Dst])
		if port < 0 {
			n.drop("drop-noroute", r, p)
			return 0, false
		}
	}
	if n.routers[r].discard[port] {
		n.drop("drop-isolation", r, p)
		return 0, false
	}
	return port, true
}

// kick starts servicing the head of ch if idle.
func (n *Network) kick(ch *channel) {
	if ch.serving || ch.blocked || len(ch.q) == 0 {
		return
	}
	from, to := int(ch.router), int(ch.to)
	if n.routers[from].failed {
		return
	}
	pkt := ch.q[0]
	if !n.linkUp[ch.link] {
		// Black hole: sink the head packet and try the next.
		n.drop("drop-blackhole", from, pkt)
		ch.dropHead()
		n.mBlackholed.Inc()
		n.wakeWaiters(ch)
		n.kick(ch)
		return
	}
	ch.serving = true
	ch.inTransit = pkt
	if pt := n.cfg.Partition; pt != nil && pt.Of[from] != pt.Of[to] {
		// Inter-region link: the hop splits into a source-side launch
		// (frees the channel after the link service time) and a
		// destination-side ingress scheduled through the partition
		// coordinator after the extra inter-region wire delay. See
		// partition.go for the model.
		e := n.eng(from)
		deliverAt := e.Now() + serviceTime(pkt) + pt.Extra
		pt.P.Send(pt.Of[from], pt.Of[to], deliverAt,
			nil, n.ingressFn, pkt, nil, packRL(to, int(ch.link)))
		e.AfterCall(serviceTime(pkt), n.launchFn, ch, pkt, 0)
		return
	}
	n.eng(from).AfterCall(serviceTime(pkt), n.arriveFn, ch, pkt, 0)
}

// arriveEv is the pre-bound event form of arrive, scheduled by kick for
// every flit-hop traversal.
func (n *Network) arriveEv(a1, a2 any, _ uint64) {
	n.arrive(a1.(*channel), a2.(*Packet))
}

// arrive is called when pkt finishes traversing ch's link. The packet is
// logically at the far router's input; it advances into that router's chosen
// output channel (or node) or blocks, keeping its slot in ch.
func (n *Network) arrive(ch *channel, pkt *Packet) {
	ch.serving = false
	ch.inTransit = nil
	if n.routers[ch.router].failed || len(ch.q) == 0 || ch.q[0] != pkt {
		// The source router failed mid-service and already destroyed
		// this packet (and counted it); nothing left to advance.
		return
	}
	if !n.linkUp[ch.link] && !pkt.Truncated {
		// The link died before service completed and the packet was
		// not marked as the in-flight victim; sink it.
		n.drop("drop-blackhole", int(ch.router), pkt)
		n.popHead(ch)
		n.mBlackholed.Inc()
		return
	}
	n.tracePkt("hop", int(ch.to), pkt)
	n.advance(ch, pkt)
}

// advance tries to move pkt (at the head of ch, already across ch's link)
// into the far router. Called initially from arrive and again from wakeups.
func (n *Network) advance(ch *channel, pkt *Packet) {
	r := int(ch.to)
	rs := &n.routers[r]
	if rs.failed {
		n.drop("drop-router", r, pkt)
		n.popHead(ch)
		return
	}
	if pkt.SourceRoute != nil {
		if pkt.hop+1 >= len(pkt.SourceRoute) || pkt.SourceRoute[pkt.hop+1] != r {
			n.drop("drop-noroute", r, pkt)
			n.popHead(ch)
			return
		}
	}
	atDst := pkt.Dst == r
	if pkt.SourceRoute != nil {
		atDst = pkt.hop+2 == len(pkt.SourceRoute) && atDst
	}
	if atDst {
		if rs.discardLocal {
			n.drop("drop-deadnode", r, pkt)
			n.popHead(ch)
			return
		}
		if n.endpoints[r] == nil || n.endpoints[r].Accept(pkt) {
			if pkt.SourceRoute != nil {
				pkt.hop++
			}
			n.tracePkt("deliver", r, pkt)
			n.popHead(ch)
			return
		}
		n.block(ch, pkt)
		rs.nodeWaiters = append(rs.nodeWaiters, ch)
		return
	}
	// Forward through r.
	if pkt.SourceRoute != nil {
		pkt.hop++
	}
	port, ok := n.nextPort(r, pkt)
	if !ok {
		if pkt.SourceRoute != nil {
			pkt.hop-- // undo; packet is gone anyway
		}
		n.popHead(ch)
		return
	}
	tch := n.channel(r, port, pkt.Lane)
	if len(tch.q) < timing.LaneBuffer {
		n.popHead(ch)
		tch.push(pkt)
		n.kick(tch)
		return
	}
	if pkt.SourceRoute != nil {
		pkt.hop-- // not moved yet
	}
	n.block(ch, pkt)
	tch.waiters = append(tch.waiters, ch)
}

// block marks ch blocked on its head packet and, for recovery lanes, arms
// the head-drop timeout.
func (n *Network) block(ch *channel, pkt *Packet) {
	ch.blocked = true
	n.mStalls.Inc()
	if pkt.Lane.IsRecovery() {
		n.eng(int(ch.router)).AfterCall(timing.RecoveryHeadDrop, n.headDropFn, ch, pkt, 0)
	}
}

// headDropEv fires the recovery-lane head-drop timeout armed by block. The
// guard makes stale timeouts (the head moved, or the channel unblocked)
// no-ops.
func (n *Network) headDropEv(a1, a2 any, _ uint64) {
	ch, pkt := a1.(*channel), a2.(*Packet)
	if ch.blocked && len(ch.q) > 0 && ch.q[0] == pkt {
		n.drop("drop-headtimeout", int(ch.router), pkt)
		n.popHead(ch)
	}
}

// popHead removes ch's head packet, wakes anything waiting for space in ch,
// and restarts service on ch.
func (n *Network) popHead(ch *channel) {
	ch.dropHead()
	ch.blocked = false
	n.wakeWaiters(ch)
	n.kick(ch)
}

// wakeWaiters retries channels blocked on space in ch.
func (n *Network) wakeWaiters(ch *channel) { n.wake(&ch.waiters) }

// wakeNodeWaiters retries channels blocked delivering into node r's
// controller.
func (n *Network) wakeNodeWaiters(r int) { n.wake(&n.routers[r].nodeWaiters) }

// wake retries the channels on a waiter list. The list is emptied first: a
// woken channel that finds its target still full blocks again and joins the
// list for the next wake, and a wake of the same list nested inside this one
// (a controller signalling NodeReady from inside Accept, a dead link sinking
// the woken packet on the spot) sees only those new entries. So that the list keeps its storage, it is emptied by
// advancing it past the entries being woken: entries added meanwhile land
// behind them in the same backing array, or in a fresh one if that is full,
// and are moved to the front at the end. A backing array that proved too
// small for both is replaced by a roomier one, so a list stops allocating
// once it has seen its worst wake.
func (n *Network) wake(list *[]*channel) {
	ws := *list
	if len(ws) == 0 {
		return
	}
	*list = ws[len(ws):]
	for _, w := range ws {
		if w.blocked && len(w.q) > 0 {
			w.blocked = false
			n.advance(w, w.q[0])
		}
	}
	again := *list
	if need := len(ws) + len(again); need > cap(ws) {
		ws = make([]*channel, 0, 2*need)
	}
	*list = append(ws[:0], again...)
}

// NodeReady signals that node id's controller can accept input again;
// deliveries blocked on it are retried.
func (n *Network) NodeReady(id int) { n.wakeNodeWaiters(id) }

// deliver hands a loopback packet to the local endpoint. A refusing
// controller (full input queue, or wedged in an infinite loop) is retried
// with a microsecond backoff; once recovery isolates the node by setting
// the local-delivery discard, the packet is dropped like any other traffic
// bound for the dead controller.
func (n *Network) deliver(p *Packet) {
	ep := n.endpoints[p.Dst]
	if ep == nil {
		return
	}
	if n.routers[p.Dst].discardLocal {
		n.drop("drop-deadnode", p.Dst, p)
		return
	}
	if !ep.Accept(p) {
		n.eng(p.Dst).AfterCall(timing.DeliveryRetry, n.deliverFn, p, nil, 0)
		return
	}
	n.tracePkt("deliver", p.Dst, p)
}

// deliverEv is the pre-bound event form of deliver, used for loopback
// packets and controller-refusal retries.
func (n *Network) deliverEv(a1, _ any, _ uint64) { n.deliver(a1.(*Packet)) }

// ProbeRouter models the §4.2 router interrogation used while determining
// the closest working neighbors: a source-routed probe is sent along path
// (router ids, starting at the prober's router), and the final router
// answers if it and every traversed element are alive. The response arrives
// after the round-trip time; if anything on the path is dead there is no
// response and the caller's timeout fires instead. Path state is evaluated
// when the probe would traverse it, i.e. at call time.
func (n *Network) ProbeRouter(path []int, cb func()) {
	if len(path) == 0 {
		return
	}
	rtt := sim.Time(0)
	for i := 0; i < len(path); i++ {
		if n.routers[path[i]].failed {
			return
		}
		if i > 0 {
			p := n.Topo.PortTo(path[i-1], path[i])
			if p < 0 || !n.linkUp[n.Topo.Adjacency(path[i-1])[p].Link] {
				return
			}
			rtt += 2 * (timing.RouterHop + timing.LinkWire + 16*timing.LinkBytePeriod)
		}
	}
	n.eng(path[0]).After(rtt+2*timing.RouterHop, cb)
}
