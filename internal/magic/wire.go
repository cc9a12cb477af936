package magic

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
)

// wire is one protocol message on the wire: the fabric's packet and the
// coherence message it carries, in a single pooled record (pkt.Payload
// points at msg, pkt.Rec back at the record).
//
// Ownership: sendMsg (FlushCache for a writeback of the P4 flush) acquires
// a record and hands &pkt to the fabric. The record has exactly one release
// point — the end of the receiving controller's dispatchEv, after the
// handler has returned. Any record that does not reach that point is never
// recycled and falls to the garbage collector: packets the fabric destroys
// (it may retain them for an end-to-end resend of the same payload),
// truncated deliveries, packets a controller consumes without dispatching
// (dead/drain/flush modes, recovery entry), exclusive grants stashed as
// orphans, and deferred packets a replay or a shutdown drops. A packet
// drain defers behind a reliable fabric keeps its record until its
// replayed dispatch.
type wire struct {
	pkt interconnect.Packet
	msg coherence.Message
}

// flushWire is a wire record of a P4 flush writeback, recycled through
// flushFree; pkt.Rec holds it as this type rather than as *wire, so the
// mark costs the record no space.
type flushWire wire

// wirePool is process-wide, not per machine or per controller: a campaign
// holds every finished machine of a batch, and a free list owned by one
// would pin that machine's high-water mark for as long as the machine is
// held. sync.Pool also makes the records safe to pass between partition
// workers and between parallel runs. Records are zeroed before Put and fully
// overwritten on Get, so nothing about a run can depend on which record it
// was handed.
var wirePool = sync.Pool{New: func() any { return new(wire) }}

// flushFree recycles the records of P4 flush writebacks. The flush is the
// protocol's one burst — every dirty line of every cache in flight at once,
// thousands of records on a 128-node machine — and in wirePool the burst
// would outlive its run in whatever part no collection had cleared yet, so
// the heap a campaign holds would vary with the collector's timing from one
// run of the same work to the next. This list is process-wide for the same
// reason as wirePool but never cleared: it holds the most flush records the
// process has had in flight at once, the same number after every run of the
// same work, rounded up to a whole flushBlock. Flushes are rare enough for
// a mutex.
var flushFree struct {
	sync.Mutex
	recs []*wire
}

// flushBlock is how many flush records an empty flushFree is refilled
// with at once: a flush takes one allocation per block of writebacks
// instead of one per writeback, whichever tests or runs warmed the list
// before it. A block is as many records as fit 16 KiB, one of the
// allocator's size classes, beside the 8-byte header it puts in front of
// an object with pointers: 64 records of 192 bytes would take the next
// class up, 13,568 bytes, and hold 10 % more heap than the records.
const flushBlock = (16<<10 - 8) / int(unsafe.Sizeof(wire{}))

// acquireFlushWire is acquireWire for a flush writeback.
func acquireFlushWire(src, dst int, m coherence.Message) *wire {
	flushFree.Lock()
	if len(flushFree.recs) == 0 {
		blk := make([]wire, flushBlock)
		for i := range blk {
			flushFree.recs = append(flushFree.recs, &blk[i])
		}
	}
	n := len(flushFree.recs)
	w := flushFree.recs[n-1]
	flushFree.recs = flushFree.recs[:n-1]
	flushFree.Unlock()
	w.load(src, dst, m)
	w.pkt.Rec = (*flushWire)(w)
	return w
}

// poisonReleased makes release poison records instead of zeroing them; see
// PoisonReleasedForTest.
var poisonReleased atomic.Bool

// PoisonReleasedForTest makes every released record (wire records and
// MSHRs) carry impossible field values instead of zeroes, so that any
// reader still holding one after its release point changes the run's
// results instead of going unnoticed. Test-only: results must not depend
// on it.
func PoisonReleasedForTest(on bool) { poisonReleased.Store(on) }

// acquireWire returns a pooled record carrying m from src to dst.
func acquireWire(src, dst int, m coherence.Message) *wire {
	w := wirePool.Get().(*wire)
	w.load(src, dst, m)
	w.pkt.Rec = w
	return w
}

// load fills w with m travelling from src to dst, its packet carrying no
// record yet.
func (w *wire) load(src, dst int, m coherence.Message) {
	w.msg = m
	lane := interconnect.LaneReply
	if m.Type.IsRequest() {
		lane = interconnect.LaneRequest
	}
	w.pkt = interconnect.Packet{
		Src: src, Dst: dst, Lane: lane,
		Bytes: w.msg.Bytes(), Payload: &w.msg,
	}
}

// releaseWire recycles the record p is embedded in, if there is one: packets
// built outside sendMsg and FlushCache (tests, the fabric's retransmissions)
// carry no record and are left alone.
func releaseWire(p *interconnect.Packet) {
	var w *wire
	flush := false
	switch r := p.Rec.(type) {
	case *wire:
		w = r
	case *flushWire:
		w, flush = (*wire)(r), true
	default:
		return
	}
	*w = wire{}
	if poisonReleased.Load() {
		w.msg = coherence.Message{Type: 0xFF, Addr: ^coherence.Addr(0), Seq: ^uint64(0)}
		w.pkt.Src, w.pkt.Dst = -1, -1
	}
	if flush {
		flushFree.Lock()
		flushFree.recs = append(flushFree.recs, w)
		flushFree.Unlock()
		return
	}
	wirePool.Put(w)
}
