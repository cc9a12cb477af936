package interconnect

import (
	"fmt"

	"flashfc/internal/timing"
	"flashfc/internal/topology"
)

// A fan-out (SendEach) sends one message to many destinations. Each
// destination gets a packet, a flow and a route of its own, exactly as if
// it had been sent alone, but an output channel does not hold the
// fan-out's packets all at once: it holds the first, and a cursor that
// materialises the next one when the one before leaves the channel's head.
// A sender's injection queues then hold one packet per port instead of one
// per destination, and the storage of a delivered packet can be reused for
// a later one.
//
// What is charged at SendEach, once per destination in destination order,
// is everything Send charges: the lane counters, a flow id (contiguous over
// the fan-out), Injected, the inject trace point, the source's table
// lookup and discard check — a packet the source drops is materialised and
// dropped on the spot — and the output port. What waits in the cursor is
// only the packet's storage. Every queue walk sees the packets it would
// see had they all been pushed: the buffer space check (Network.room) and
// InFlight count what the cursors hold, the destructive paths (SetDiscard,
// FailRouter) materialise the rest of a cursor and drop each in queue
// order, and a black-holed link drops them one by one as they reach the
// head.

// cursor is what an output channel keeps of a fan-out's packets still to
// materialise behind the one it has queued. A fan-out's cursors, one per
// output port, are allocated together; they are garbage once the last
// packet has left, as the packets they made are once delivered.
type cursor struct {
	tmpl *Packet
	take func(tmpl *Packet) *Packet
	// row is the source's table row at SendEach. SetRouterTable installs
	// a fresh row and never writes an installed one, so the row still
	// tells which destinations were sent to this cursor's port.
	row  []topology.Port
	dsts []int
	// next is the index in dsts of the next destination to consider, and
	// flow that destination's flow (the source itself has none).
	next int
	flow uint64
	// left counts the packets still to materialise.
	left int
	port topology.Port
	// live is set while one of the cursor's packets is queued: a packet
	// SendEach sends to the port joins the cursor only then.
	live bool
}

// SendEach sends a copy of tmpl to every node of dsts but tmpl.Src, in
// dsts order, as that many Sends would: same flows, trace points,
// counters, drops and delivery order. tmpl is table-routed and is shared
// by the packets: the fabric reads its Src, Lane and Bytes, sets its
// Injected, and keeps it, and dsts, until the last packet is
// materialised; the caller must not write either meanwhile. Each packet's
// storage comes from take(tmpl) when the packet is materialised, with its
// Payload and Rec set; the fabric writes every other field.
func (n *Network) SendEach(tmpl *Packet, dsts []int, take func(tmpl *Packet) *Packet) {
	if tmpl.SourceRoute != nil {
		panic(fmt.Sprintf("interconnect: source-routed fan-out %v", tmpl))
	}
	src, lane := tmpl.Src, tmpl.Lane
	tmpl.Injected = n.now(src)
	rs := &n.routers[src]
	row := rs.table
	fl := uint64(flits(tmpl))
	var curs []cursor // by port, allocated with the first queued packet
	for i, d := range dsts {
		if d == src {
			continue
		}
		n.mLanePackets[lane].Inc()
		n.mLaneFlits[lane].Add(fl)
		flow := n.nextFlow(src)
		n.tracePoint("inject", src, flow, d, lane)
		port := int(row[d])
		if name := sourceDrop(rs, port); name != "" {
			n.drop(name, src, n.stamp(tmpl, take, d, flow))
			continue
		}
		if curs == nil {
			curs = make([]cursor, len(rs.discard))
		}
		ch := n.channel(src, port, lane)
		if c := &curs[port]; c.live {
			c.left++
			n.pending++
		} else {
			// The port's first packet, or the first since a dead
			// link sank the cursor's queue.
			*c = cursor{tmpl: tmpl, take: take, row: row, dsts: dsts,
				next: i + 1, flow: flow + 1, port: topology.Port(port), live: true}
			p := n.stamp(tmpl, take, d, flow)
			p.cur = c
			ch.push(p)
		}
		n.kick(ch)
	}
}

// sourceDrop names the drop a table-routed packet meets at its source rs
// when the row sends it to port, or returns "" if it is queued there: the
// checks Send makes, in its order.
func sourceDrop(rs *routerState, port int) string {
	switch {
	case rs.failed:
		return "drop-router"
	case port < 0:
		return "drop-noroute"
	case rs.discard[port]:
		return "drop-isolation"
	}
	return ""
}

// stamp materialises tmpl's packet to dst with the given flow in storage
// from take.
func (n *Network) stamp(tmpl *Packet, take func(*Packet) *Packet, dst int, flow uint64) *Packet {
	p := take(tmpl)
	*p = Packet{Src: tmpl.Src, Dst: dst, Lane: tmpl.Lane, Bytes: tmpl.Bytes,
		Payload: p.Payload, Rec: p.Rec, Injected: tmpl.Injected, flow: flow}
	return p
}

// materialise returns c's next packet.
func (n *Network) materialise(c *cursor) *Packet {
	c.left--
	n.pending--
	for {
		d := c.dsts[c.next]
		c.next++
		if d == c.tmpl.Src {
			continue
		}
		flow := c.flow
		c.flow++
		if c.row[d] == c.port {
			return n.stamp(c.tmpl, c.take, d, flow)
		}
	}
}

// dropHead removes ch's head packet, taking its cursor off it.
func (n *Network) dropHead(ch *channel) {
	p := ch.q[0]
	c := p.cur
	p.cur = nil
	n.shiftHead(ch, c)
}

// shiftHead removes ch's head packet, whose cursor was c, without reading
// it: the packet may already be an endpoint's (see handOver). If c is
// non-nil, its next packet takes the head's place, or the cursor ends.
func (n *Network) shiftHead(ch *channel, c *cursor) {
	if c != nil {
		if c.left > 0 {
			q := n.materialise(c)
			q.cur = c
			ch.q[0] = q
			ch.pops++
			return
		}
		c.live = false
	}
	ch.dropHead()
}

// dropQueued drops every packet queued on ch at router at — all but the
// head if keepHead — in queue order, the packets a cursor still holds
// materialised in their place, and reports each as name.
func (n *Network) dropQueued(ch *channel, keepHead bool, name string, at int) {
	k := 0
	if keepHead {
		k = 1
		n.dropRest(ch.q[0], name, at)
	}
	for _, p := range ch.q[k:] {
		n.drop(name, at, p)
		n.dropRest(p, name, at)
	}
	clear(ch.q[k:])
	ch.q = ch.q[:k]
}

// room reports whether ch has buffer space for one more packet, counting,
// besides the packets queued, those their cursors have yet to materialise.
// Only a queue shorter than the buffer needs its packets read, and only
// while some fan-out is pending.
func (n *Network) room(ch *channel) bool {
	k := len(ch.q)
	if n.pending > 0 {
		for i := 0; i < len(ch.q) && k < timing.LaneBuffer; i++ {
			if c := ch.q[i].cur; c != nil {
				k += c.left
			}
		}
	}
	return k < timing.LaneBuffer
}

// dropRest drops the packets that p's cursor, if any, still holds, and
// ends the cursor.
func (n *Network) dropRest(p *Packet, name string, at int) {
	c := p.cur
	if c == nil {
		return
	}
	p.cur = nil
	for c.left > 0 {
		n.drop(name, at, n.materialise(c))
	}
	c.live = false
}
