package interconnect

import (
	"flashfc/internal/sim"
	"flashfc/internal/timing"
)

// Partition spreads one fabric across the region-local engines of a
// partitioned simulation (internal/sim.Partitioned). Every router's events
// run on its region's engine; hops inside a region are exactly the classic
// model, while a hop across an inter-region link splits into two halves:
//
//	source side: the sending channel is occupied for the normal link
//	service time, then released — the long inter-region wire is elastic,
//	so no backpressure (and no zero-latency waiter wakeups) ever crosses
//	a region boundary during a parallel window;
//
//	destination side: the packet appears at the far router's input after
//	service time + Extra, delivered through the partition coordinator's
//	ordered cross-region channel (sim.Partitioned.Send), which merges it
//	deterministically at a window barrier.
//
// Extra models the longer wires of a clusterized mesh (TSAR-style
// inter-cluster cabling): region-crossing links are physically longer than
// in-cluster ones, and that physical latency is exactly what a conservative
// simulation converts into lookahead. The partition lookahead must be
// LookaheadBound(Extra) — the minimum time any packet needs to cross a
// boundary — so every cross-region delivery lands at or beyond the next
// window barrier.
//
// A partitioned fabric carries only fault-free traffic (the machine
// refuses faults and recovery on it), so a boundary hop never meets a
// failed router or link, a discarding node or a source route.
type Partition struct {
	// Of maps router -> region (topology.Regions.Of).
	Of []int
	// Engines holds the per-region engines, indexed by region.
	Engines []*sim.Engine
	// P is the window/barrier coordinator the boundary hops post through.
	P *sim.Partitioned
	// Extra is the additional wire latency of an inter-region link.
	Extra sim.Time
}

// LookaheadBound returns the minimum latency of an inter-region hop with
// the given extra wire delay: the smallest possible link service time (a
// header-only packet) plus the extra wire. This is the conservative
// lookahead a partitioned machine must run its windows at.
func LookaheadBound(extra sim.Time) sim.Time {
	return timing.RouterHop + timing.LinkWire + timing.HeaderBytes*timing.LinkBytePeriod + extra
}

// regionFlowShift positions the region tag in partitioned flow ids: the low
// 40 bits count injections within the region (plenty for any run), the high
// bits carry region+1 so ids from different regions never collide and a
// partitioned id is never 0.
const regionFlowShift = 40

// eng returns the engine that runs router r's events.
func (n *Network) eng(r int) *sim.Engine {
	if pt := n.cfg.Partition; pt != nil {
		return pt.Engines[pt.Of[r]]
	}
	return n.E
}

// now returns the current simulated time at router r — its own region's
// clock in partitioned mode. Only r's region observes it during a window,
// so it is always the time of the event being executed.
func (n *Network) now(r int) sim.Time {
	return n.eng(r).Now()
}

// launchEv fires on the source side when a packet finishes its service time
// on an inter-region link: the packet has left the region, so free its
// channel slot and move the queue along. a2 is the head's fan-out cursor,
// taken off the packet by kick: the packet itself belongs to the
// destination region, whose ingressEv decides its fate, and is not read.
func (n *Network) launchEv(a1, a2 any, _ uint64) {
	ch := a1.(*channel)
	ch.inTransit = nil
	c, _ := a2.(*cursor)
	n.shiftHead(ch, c)
	n.resume(ch)
}

// ingressEv fires in the destination region when a packet arrives over an
// inter-region link (scheduled by kick through the partition coordinator).
func (n *Network) ingressEv(a1, _ any, u uint64) {
	pkt := a1.(*Packet)
	r := int(u)
	n.tracePkt("hop", r, pkt)
	n.arriveFree(r, pkt)
}

// retryEv retries a boundary-arrived packet whose destination controller
// refused it (full input queue): the elastic inter-region path has no
// channel to block on, so refusal is polled with the same backoff the
// loopback path uses.
func (n *Network) retryEv(a1, _ any, u uint64) {
	n.arriveFree(int(u), a1.(*Packet))
}

// arriveFree advances a packet that is at router r's input without
// occupying a sending channel: the destination half of an inter-region hop.
// It mirrors advance() exactly, except that where advance blocks a source
// channel (full next-hop buffer, refusing controller), arriveFree is
// elastic — the next-hop queue absorbs the packet, and controller refusal
// becomes a timed retry. Both divergences are confined to boundary
// crossings, are identical at any worker count, and never let one region
// synchronously touch another mid-window.
func (n *Network) arriveFree(r int, pkt *Packet) {
	if pkt.Dst == r {
		if _, ok := n.handOver(r, pkt); !ok {
			n.mStalls.Inc()
			n.eng(r).AfterCall(timing.DeliveryRetry, n.retryFn, pkt, nil, uint64(r))
		}
		return
	}
	hop := pkt.hop + 1
	port, ok := n.nextPort(r, pkt, hop)
	if !ok {
		return // counted by nextPort; packet is gone
	}
	pkt.hop = hop
	tch := n.channel(r, port, pkt.Lane)
	tch.push(pkt) // elastic ingress: the boundary absorbs bursts
	n.kick(tch)
}
