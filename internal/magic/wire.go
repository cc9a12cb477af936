package magic

import (
	"sync"
	"sync/atomic"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
)

// wire is one protocol message on the wire: the fabric's packet and the
// coherence message it carries, in a single pooled record (pkt.Payload
// points at msg, pkt.Rec back at the record).
//
// Ownership: sendMsg acquires a record and hands &pkt to the fabric. The
// record has exactly one release point — the end of the receiving
// controller's dispatchEv, after the handler has returned. Any record that
// does not reach that point is never recycled and falls to the garbage
// collector: packets the fabric destroys (it may retain them for an
// end-to-end resend of the same payload), truncated deliveries, packets a
// controller consumes without dispatching (dead/drain/flush modes, recovery
// entry), and exclusive grants stashed as orphans.
type wire struct {
	pkt interconnect.Packet
	msg coherence.Message
}

// wirePool is process-wide, not per machine or per controller: a campaign
// holds every finished machine of a batch, and a free list owned by one
// would pin that machine's burst high-water mark (the P4 flush) for as long
// as the machine is held. sync.Pool also makes the records safe to pass
// between partition workers and between parallel runs. Records are zeroed
// before Put and fully overwritten on Get, so nothing about a run can depend
// on which record it was handed.
var wirePool = sync.Pool{New: func() any { return new(wire) }}

// poisonReleased makes release poison records instead of zeroing them; see
// PoisonReleasedForTest.
var poisonReleased atomic.Bool

// PoisonReleasedForTest makes every released record (wire records and
// MSHRs) carry impossible field values instead of zeroes, so that any
// reader still holding one after its release point changes the run's
// results instead of going unnoticed. Test-only: results must not depend
// on it.
func PoisonReleasedForTest(on bool) { poisonReleased.Store(on) }

// acquireWire returns a record carrying m from src to dst.
func acquireWire(src, dst int, m coherence.Message) *wire {
	w := wirePool.Get().(*wire)
	w.msg = m
	lane := interconnect.LaneReply
	if m.Type.IsRequest() {
		lane = interconnect.LaneRequest
	}
	w.pkt = interconnect.Packet{
		Src: src, Dst: dst, Lane: lane,
		Bytes: w.msg.Bytes(), Payload: &w.msg, Rec: w,
	}
	return w
}

// releaseWire recycles the record p is embedded in, if there is one: packets
// built outside sendMsg (tests, the fabric's retransmissions) carry no
// record and are left alone.
func releaseWire(p *interconnect.Packet) {
	w, ok := p.Rec.(*wire)
	if !ok {
		return
	}
	*w = wire{}
	if poisonReleased.Load() {
		w.msg = coherence.Message{Type: 0xFF, Addr: ^coherence.Addr(0), Seq: ^uint64(0)}
		w.pkt.Src, w.pkt.Dst = -1, -1
	}
	wirePool.Put(w)
}
