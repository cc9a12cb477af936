package sim

import (
	"math/bits"
	"slices"
)

// The wheel is three levels of 256 slots. Level l buckets timestamps by
// bits [baseShift+8l, baseShift+8(l+1)) — 64 ns slots at level 0, ~16 us at
// level 1, ~4.2 ms at level 2 — for a horizon of 2^30 ns (~1.07 s) beyond
// which events fall through to the far heap. Every resident wheel event
// satisfies at >= max(now, drainCeil), so each level's 256-slot window
// covers at most one slot-time per index and slots never mix rotations:
// a circular scan from the reference index enumerates slots in strictly
// increasing time order, and a whole slot can be drained or cascaded
// without filtering.
//
// A level-0 slot is an array, because loadDrain sorts it into the drain
// run; once loaded, the array goes to a spare list for the next empty slot
// to fill, so an engine keeps about as many arrays as it has level-0 slots
// occupied at once, not one per index. An upper-level slot is a FIFO list
// threaded through the event records (event.next): a cascade walks it
// once, in placement order, and re-places each event a level down, so it
// needs no array at all.
//
// Two more invariants make the drain cheap. A slot fills in placement
// order, so events placed directly are in seq order; only a cascade, which
// appends events scheduled long ago, can put older seqs behind newer ones,
// and loadDrain looks for that while it counts (DESIGN.md, "Transport
// kernel data layout", has the measured shares). And the base time of a
// resident slot never depends on the reference a scan starts from, so each
// upper level's earliest slot is cached (wheelLevel.min) until something
// that can change it happens.
const (
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 3
	baseShift = 6 // level-0 slot width: 64 ns
	occWords  = numSlots / 64
)

// wheelLevel is one ring's occupancy bitmap, for O(1) scans to the next
// non-empty slot, and its cached earliest slot.
type wheelLevel struct {
	occ [occWords]uint64
	// min caches earliestSlot's answer for an upper level, where it
	// changes once per cascade rather than once per drained slot. A slot's
	// base time is a property of the events in it, not of the reference
	// the scan starts from (every resident event is >= ref and no slot
	// mixes rotations), so the answer stays good until a placement
	// undercuts it, its slot is taken, or a purge may have emptied it.
	min struct {
		known, any bool // any: the level is non-empty and base, idx are set
		base       Time
		idx        int
	}
}

// eventList is a FIFO of events linked through event.next.
type eventList struct{ head, tail *event }

func (q *eventList) push(ev *event) {
	if q.tail == nil {
		q.head = ev
	} else {
		q.tail.next = ev
	}
	q.tail = ev
}

type wheel struct {
	levels [numLevels]wheelLevel
	// slots are level 0's slots.
	slots [numSlots][]*event
	// lists are the slots of levels 1 and 2.
	lists [numLevels - 1][numSlots]eventList
	// spare holds the emptied arrays of loaded level-0 slots.
	spare [][]*event
}

// ref is the wheel placement reference: every wheel-resident event has
// at >= ref, which is what keeps slot windows unambiguous.
func (e *Engine) ref() Time {
	if e.drainCeil > e.now {
		return e.drainCeil
	}
	return e.now
}

// placeWheel buckets ev into the shallowest level whose window (relative to
// ref) reaches ev.at, or pushes it to the far heap beyond the horizon.
func (e *Engine) placeWheel(ev *event, ref Time) {
	d := uint64(ev.at) >> baseShift
	r := uint64(ref) >> baseShift
	for l := 0; l < numLevels; l++ {
		if d-r < numSlots {
			idx := int(d) & slotMask
			w := &e.wheel
			if l == 0 {
				slot := w.slots[idx]
				if slot == nil && len(w.spare) > 0 {
					slot = w.spare[len(w.spare)-1]
					w.spare = w.spare[:len(w.spare)-1]
				}
				w.slots[idx] = append(slot, ev)
			} else {
				w.lists[l-1][idx].push(ev)
			}
			lv := &w.levels[l]
			lv.occ[idx>>6] |= 1 << (idx & 63)
			if m := &lv.min; m.known {
				if base := Time(d << uint(baseShift+l*slotBits)); !m.any || base < m.base {
					m.any, m.base, m.idx = true, base, idx
				}
			}
			return
		}
		d >>= slotBits
		r >>= slotBits
	}
	e.far.push(ev)
}

// earliestSlot finds the non-empty slot of level l with the smallest base
// time, scanning the occupancy bitmap circularly from the slot containing
// ref. The second return is the slot index; ok is false if the level is
// empty.
func (e *Engine) earliestSlot(l int, ref Time) (Time, int, bool) {
	lv := &e.wheel.levels[l]
	if m := &lv.min; m.known {
		return m.base, m.idx, m.any
	}
	shift := uint(baseShift + l*slotBits)
	cur := uint64(ref) >> shift
	c := int(cur) & slotMask
	for k := 0; k <= occWords; k++ {
		wi := ((c >> 6) + k) % occWords
		w := lv.occ[wi]
		if k == 0 {
			w &= ^uint64(0) << (c & 63)
		} else if k == occWords {
			w &= (1 << (c & 63)) - 1
		}
		if w != 0 {
			idx := wi*64 + bits.TrailingZeros64(w)
			slotTime := cur + uint64((idx-c)&slotMask)
			base := Time(slotTime << shift)
			if l > 0 {
				lv.min.known, lv.min.any, lv.min.base, lv.min.idx = true, true, base, idx
			}
			return base, idx, true
		}
	}
	if l > 0 {
		lv.min.known, lv.min.any = true, false
	}
	return 0, 0, false
}

// vacate clears a taken slot's occupancy bit and the level's cached
// earliest slot.
func (lv *wheelLevel) vacate(idx int) {
	lv.occ[idx>>6] &^= 1 << (idx & 63)
	lv.min.known = false
}

// refill advances the wheel to its next non-empty slot and loads that
// slot's events — sorted by (at, seq) — into the drain run. Higher-level
// slots whose base precedes every level-0 slot cascade one level down
// first; since no pending wheel event is earlier than such a slot's base,
// the cursor (drainCeil) jumps to it, which guarantees the cascaded events
// land a level below (and keeps cascades O(1) amortized per event: each
// event descends at most numLevels-1 times in its life). Reports false when
// the wheel holds no events at all (the far heap may still).
func (e *Engine) refill() bool {
	e.drain = e.drain[:0]
	e.drainPos = 0
	for {
		ref := e.ref()
		var bestBase Time
		bestL, bestIdx := -1, 0
		for l := numLevels - 1; l >= 0; l-- {
			if base, idx, ok := e.earliestSlot(l, ref); ok {
				// Strictly-less keeps the higher level on ties:
				// its slot must cascade before the level-0 slot
				// with the same base is drained.
				if bestL < 0 || base < bestBase {
					bestBase, bestL, bestIdx = base, l, idx
				}
			}
		}
		if bestL < 0 {
			return false
		}
		w := &e.wheel
		w.levels[bestL].vacate(bestIdx)
		if bestL == 0 {
			evs := w.slots[bestIdx]
			w.slots[bestIdx] = nil
			e.loadDrain(evs)
			w.spare = append(w.spare, evs[:0])
			e.drainCeil = bestBase + (1 << baseShift)
			return true
		}
		// Cascade: no wheel event precedes bestBase, so it becomes the
		// new placement reference; every event in the slot re-places at
		// a strictly lower level, in the order it was placed here.
		if e.drainCeil < bestBase {
			e.drainCeil = bestBase
		}
		q := &w.lists[bestL-1][bestIdx]
		ev := q.head
		*q = eventList{}
		for ev != nil {
			next := ev.next
			ev.next = nil
			e.placeWheel(ev, bestBase)
			ev = next
		}
	}
}

// countingSortMin is the slot size from which loadDrain's counting sort
// beats the comparison sort: below it, clearing and summing one counter per
// nanosecond of the slot costs more than the comparisons it saves. Measured
// on slots shaped like BenchmarkBigSlotDrain's, the two cross between 16 and
// 24 events.
const countingSortMin = 24

// loadDrain makes evs, the events of one level-0 slot, the drain run, sorted
// by (at, seq). Events scheduled straight into a level-0 slot arrive in seq
// order, so a slot is normally already seq-sorted, and all its timestamps
// share everything above the low baseShift bits; a stable counting sort on
// those bits then yields (at, seq) order in O(n) with no comparisons. Only
// a cascade can break the premise — it appends events scheduled long ago
// behind ones placed directly since — so seq order is checked during the
// counting pass, and such a slot, like a tiny one, is comparison-sorted.
func (e *Engine) loadDrain(evs []*event) {
	const slotSpan = 1 << baseShift
	if len(evs) >= countingSortMin {
		var start [slotSpan + 1]int32
		inSeq := true
		seq := evs[0].seq
		for _, ev := range evs {
			start[uint64(ev.at)&(slotSpan-1)+1]++
			inSeq = inSeq && ev.seq >= seq
			seq = ev.seq
		}
		if inSeq {
			for i := 1; i < slotSpan; i++ {
				start[i] += start[i-1]
			}
			e.drain = slices.Grow(e.drain, len(evs))[:len(evs)]
			for _, ev := range evs {
				k := uint64(ev.at) & (slotSpan - 1)
				e.drain[start[k]] = ev
				start[k]++
			}
			return
		}
	}
	e.drain = append(e.drain, evs...)
	slices.SortFunc(e.drain, func(a, b *event) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// insertDrain merges a new event into the pending part of the drain run.
// The event's sequence number is larger than every resident one, so it
// slots after all events with at <= ev.at; since ev.at >= now, the position
// is never before the pop cursor.
func (e *Engine) insertDrain(ev *event) {
	d := e.drain
	lo, hi := e.drainPos, len(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d[mid].at <= ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	d = append(d, nil)
	copy(d[lo+1:], d[lo:])
	d[lo] = ev
	e.drain = d
}

// purgeCancelled drops cancelled events from every occupied slot during a
// compaction sweep, releasing them to the free list.
func (w *wheel) purgeCancelled(e *Engine) {
	for l := range w.levels {
		lv := &w.levels[l]
		lv.min.known = false
		for wi, wbits := range lv.occ {
			for wbits != 0 {
				b := bits.TrailingZeros64(wbits)
				wbits &^= 1 << b
				idx := wi*64 + b
				var empty bool
				if l == 0 {
					empty = w.purgeSlot(e, idx)
				} else {
					empty = w.purgeList(e, &w.lists[l-1][idx])
				}
				if empty {
					lv.occ[wi] &^= 1 << b
				}
			}
		}
	}
}

// purgeSlot filters level-0 slot idx in place and reports whether it is
// now empty.
func (w *wheel) purgeSlot(e *Engine, idx int) bool {
	slot := w.slots[idx]
	k := 0
	for _, ev := range slot {
		if ev.cancel {
			e.release(ev)
		} else {
			slot[k] = ev
			k++
		}
	}
	for i := k; i < len(slot); i++ {
		slot[i] = nil
	}
	w.slots[idx] = slot[:k]
	return k == 0
}

// purgeList relinks an upper-level slot's list without its cancelled
// events and reports whether it is now empty.
func (w *wheel) purgeList(e *Engine, q *eventList) bool {
	ev := q.head
	*q = eventList{}
	for ev != nil {
		next := ev.next
		ev.next = nil
		if ev.cancel {
			e.release(ev)
		} else {
			q.push(ev)
		}
		ev = next
	}
	return q.head == nil
}

// farHeap is a plain (at, seq) min-heap for events beyond the wheel
// horizon. Far events are never promoted into the wheel; the pop path
// merges the heap top against the drain head instead.
type farHeap []*event

func (h farHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(ev *event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *farHeap) pop() *event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

func (h farHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// reinit restores the heap property after a compaction filtered the slice
// in place.
func (h farHeap) reinit() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}
