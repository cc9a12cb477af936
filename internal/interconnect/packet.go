// Package interconnect simulates the CrayLink/SPIDER-style point-to-point
// fabric of FLASH: table-routed wormhole-ish channels with per-virtual-lane
// buffering and backpressure, two dedicated recovery lanes that are never
// clogged by backed-up coherence traffic (§4.1), a source-routing option for
// recovery packets, and the failure semantics of §3.1/§4.1: failed links act
// as black holes, a packet in transit over a failing link is truncated but
// still delivered, failed routers sink traffic, and congestion from a
// non-accepting node controller backs up into the fabric.
package interconnect

import (
	"fmt"

	"flashfc/internal/sim"
	"flashfc/internal/timing"
)

// Lane is a virtual lane. Coherence requests and replies travel on separate
// lanes (the usual deadlock-avoidance split); the recovery algorithm owns
// two dedicated lanes so that it can assume clear channels (§4.1).
type Lane int

const (
	LaneRequest Lane = iota
	LaneReply
	LaneRecoveryA
	LaneRecoveryB
	NumLanes
)

// IsRecovery reports whether l is one of the dedicated recovery lanes.
func (l Lane) IsRecovery() bool { return l == LaneRecoveryA || l == LaneRecoveryB }

func (l Lane) String() string {
	switch l {
	case LaneRequest:
		return "req"
	case LaneReply:
		return "reply"
	case LaneRecoveryA:
		return "recA"
	case LaneRecoveryB:
		return "recB"
	default:
		return fmt.Sprintf("lane%d", int(l))
	}
}

// Packet is a message traversing the interconnect. Payload content is opaque
// to the fabric.
type Packet struct {
	Src, Dst int  // node ids (== router ids)
	Lane     Lane //
	// SourceRoute, when non-nil, is the exact router path the packet
	// takes, starting with Src's router and ending at Dst's (§4.1). When
	// nil the packet follows the routing tables.
	SourceRoute []int
	Payload     any
	Bytes       int // payload size for serialization cost
	// Truncated is set by the fabric when the packet was in transit over
	// a link that failed (§3.1); the receiving node controller treats the
	// reception of a truncated packet as a recovery trigger.
	Truncated bool
	// retried marks an end-to-end retransmission (reliable mode); a
	// retried packet that is destroyed again counts as a real loss.
	retried bool
	// awaitPops is, while the packet is a recovery lane's blocked head,
	// the head removals of the channel it waits for (see Network.block).
	awaitPops uint16
	Injected  sim.Time
	// Rec, when non-nil, is the sender's pooled record this packet is
	// embedded in. It is opaque to the fabric, which neither reads it nor
	// copies it onto a retransmission; the endpoint that consumes the
	// packet uses it to hand the record back (see magic's wire pool).
	Rec any

	// hop is the index along the packet's path of the router whose
	// channel holds it (of that router within SourceRoute on a source
	// route). It moves when the packet moves, and only then.
	hop int
	// cur is the fan-out cursor whose packets follow this one in its
	// source channel (see fanout.go), nil once it has left that
	// channel's head.
	cur *cursor
	// flow is the injection sequence number, assigned by the network when
	// the packet first enters the fabric. It links the trace points of one
	// packet's lifetime (inject → hops → deliver/drop) and provides a
	// deterministic ordering for packets recovered from unordered sets.
	flow uint64
}

// Flow returns the packet's injection sequence number (0 before injection).
func (p *Packet) Flow() uint64 { return p.flow }

func (p *Packet) String() string {
	sr := ""
	if p.SourceRoute != nil {
		sr = fmt.Sprintf(" sr=%v", p.SourceRoute)
	}
	tr := ""
	if p.Truncated {
		tr = " TRUNC"
	}
	return fmt.Sprintf("pkt{%d->%d %v %dB%s%s}", p.Src, p.Dst, p.Lane, p.Bytes, sr, tr)
}

// serviceTime is the time to move the packet across one hop: router
// pipeline, wire, and serialization.
func serviceTime(p *Packet) sim.Time {
	return timing.RouterHop + timing.LinkWire +
		sim.Time(p.Bytes+timing.HeaderBytes)*timing.LinkBytePeriod
}

// flits is the packet's length in header-sized flow-control units, rounded
// up; used for the per-lane traffic metrics.
func flits(p *Packet) int {
	return (p.Bytes + timing.HeaderBytes + timing.HeaderBytes - 1) / timing.HeaderBytes
}

// Endpoint is the node-controller side of the fabric. Accept is called when
// a packet reaches its destination router; returning false refuses the
// packet (controller input full, or a controller stuck in an infinite loop),
// leaving it blocked in the fabric until NodeReady is called — this is the
// mechanism by which a sick node congests the interconnect (§3.1).
type Endpoint interface {
	Accept(p *Packet) bool
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(p *Packet) bool

// Accept calls f(p).
func (f EndpointFunc) Accept(p *Packet) bool { return f(p) }
