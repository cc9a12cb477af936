// Package sim provides the deterministic discrete-event simulation engine
// that drives every other component in flashfc. Time is modeled in integer
// nanoseconds; events scheduled for the same instant fire in the order they
// were scheduled, which makes whole-machine runs bit-for-bit reproducible for
// a given seed.
//
// The scheduler is a three-level hierarchical timing wheel (64 ns base slots,
// a ~1 s window) with a free list that recycles event records across
// firings. The wheel is the only structure that orders events: one beyond
// its window waits in the window's last slot and is placed again when that
// slot is reached. Level-0 slots are arrays, handed from a loaded slot to
// the next one to fill; upper-level slots are lists threaded through the
// event records themselves, so a fresh engine schedules into them without
// allocating. A reached slot is
// loaded into a sorted run without comparisons when it can be — events
// scheduled straight into a slot already sit in sequence order, so a stable
// counting sort on the 64 ns of the slot finishes the job — and the earliest
// slot of each upper level is remembered between drains rather than
// re-scanned. Events pop in exactly the (time, sequence) order of a binary
// heap — the structure is a throughput optimization, never a semantic one.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Common durations, mirroring time.Duration style constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String formats the time with an adaptive unit, e.g. "2.5s", "1.500ms" or
// "320ns". The unit cascade selects by magnitude: values of at least one
// second print in seconds (mixed values like 2*Second+500*Millisecond render
// as "2.5s", not "2500.000ms"), then milliseconds, then microseconds, then
// raw nanoseconds; negative values mirror their positive counterparts.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Second || t <= -Second:
		return trimZeros(fmt.Sprintf("%.3f", float64(t)/float64(Second))) + "s"
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// trimZeros drops trailing fractional zeros ("2.500" -> "2.5").
func trimZeros(s string) string {
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Callback is the pre-bound event form: the arguments are stored inline in
// the pooled event record, so hot paths that would otherwise allocate a
// fresh closure per scheduling (per-flit hop delivery, MAGIC dispatch,
// processor retirement) schedule with zero heap allocations. a1 and a2 must
// be pointer-shaped values (pointers, funcs, interfaces) to stay
// allocation-free; integers ride in u.
type Callback func(a1, a2 any, u uint64)

// event is a single scheduled callback. Records are recycled through the
// engine's free list; gen distinguishes a record's successive scheduling
// lives so that a stale Timer cannot cancel its slot's next tenant.
type event struct {
	at     Time
	seq    uint64 // tiebreaker: FIFO among same-time events
	cb     Callback
	a1, a2 any
	u      uint64
	gen    uint64
	cancel bool
	// next links the event into an upper-level wheel slot's list.
	next *event
}

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	live int // scheduled events that are not cancelled
	// total counts resident event records, cancelled ones included:
	// scheduled minus popped. The compaction trigger compares it with live.
	total       int
	seed        int64
	src         *countingSource
	rng         *rand.Rand
	stopped     bool
	fired       uint64
	compactions uint64

	wheel wheel
	// drain is the sorted run of due events pulled from the reached wheel
	// slot; drainPos is the pop cursor and drainCeil the exclusive time
	// bound below which new schedulings must be merged into drain rather
	// than placed in the wheel.
	drain     []*event
	drainPos  int
	drainCeil Time
	free      []*event
}

// NewEngine returns an engine whose clock starts at zero and whose random
// stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Engine{seed: seed, src: src, rng: rand.New(src)}
}

// countingSource wraps the standard PRNG source and counts state advances.
// Both Int63 and Uint64 step the underlying generator exactly once, so a
// snapshot can record the draw count and a fork can replay it with Uint64
// alone, regardless of which rand.Rand methods consumed the stream. The
// wrapper delegates both source methods, so the produced stream is
// bit-identical to an unwrapped rand.NewSource (pinned seed goldens are
// unaffected).
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsFired reports how many events have executed so far; useful for
// simulator performance accounting in benchmarks.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports how many live (non-cancelled) events are still queued.
func (e *Engine) Pending() int { return e.live }

// Compactions reports how many cancelled-event compactions have run.
func (e *Engine) Compactions() uint64 { return e.compactions }

// Timer identifies a scheduled event so that it can be canceled. It is a
// plain value — scheduling never allocates a Timer — and the zero Timer is
// valid: Cancel on it is a no-op.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. Canceling an
// already-fired or already-canceled timer is a no-op. It reports whether the
// callback was actually prevented.
func (t Timer) Cancel() bool {
	if t.e == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.cancel {
		return false
	}
	t.ev.cancel = true
	t.e.live--
	t.e.maybeCompact()
	return true
}

// compactMin is the resident-event count below which compaction is not
// worth a sweep.
const compactMin = 64

// maybeCompact purges cancelled events once they outnumber the live ones,
// returning their records to the free list. Protocol timeouts are armed per
// operation and almost always cancelled, so without this the queue holds
// dead entries (and their closures) until their timestamps come up. The
// trigger is kept for memory: with it disabled, live heap grows by a quarter
// to two thirds on the ledger workloads at -seconds 3, seed 1 (live_heap_mb:
// table53 43.8 → 54.7, tail-sparse 66.0 → 83.2, recovery128 11.4 → 18.5)
// and table53 allocs_per_run 10.4 k → 13.3 k.
func (e *Engine) maybeCompact() {
	if e.total < compactMin || 2*e.live >= e.total {
		return
	}
	e.compactions++
	e.purge()
}

// purge releases every cancelled event in the pending drain run and the
// wheel to the free list, leaving total == live. Compaction and Snapshot
// both call it.
func (e *Engine) purge() {
	w := e.drainPos
	for i := e.drainPos; i < len(e.drain); i++ {
		if ev := e.drain[i]; ev.cancel {
			e.release(ev)
		} else {
			e.drain[w] = ev
			w++
		}
	}
	for i := w; i < len(e.drain); i++ {
		e.drain[i] = nil
	}
	e.drain = e.drain[:w]
	e.wheel.purgeCancelled(e)
	e.total = e.live
}

// alloc takes an event record off the free list (or mints one) and stamps
// it with the next sequence number.
func (e *Engine) alloc(at Time) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	return ev
}

// release returns a popped or purged event record to the free list,
// retiring its generation so stale Timers can no longer reach it.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.cb = nil
	ev.a1 = nil
	ev.a2 = nil
	ev.u = 0
	ev.cancel = false
	e.free = append(e.free, ev)
}

// schedule places a freshly allocated event and returns its Timer.
func (e *Engine) schedule(ev *event) Timer {
	e.live++
	e.total++
	if ev.at < e.drainCeil {
		e.insertDrain(ev)
	} else {
		e.placeWheel(ev, e.ref())
	}
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// that is always a model bug.
func (e *Engine) At(at Time, fn func()) Timer { return e.AtCall(at, runFunc, fn, nil, 0) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer { return e.AfterCall(d, runFunc, fn, nil, 0) }

// runFunc is the Callback that runs a1 as a func(): At and After schedule
// a closure through it. A func value rides in a1 without allocating.
func runFunc(a1, _ any, _ uint64) { a1.(func())() }

// AtCall schedules the pre-bound cb(a1, a2, u) at absolute time at. Unlike
// At with a capturing closure, the arguments travel inside the pooled event
// record, so the call allocates nothing.
func (e *Engine) AtCall(at Time, cb Callback, a1, a2 any, u uint64) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc(at)
	ev.cb = cb
	ev.a1 = a1
	ev.a2 = a2
	ev.u = u
	return e.schedule(ev)
}

// AfterCall schedules the pre-bound cb(a1, a2, u) d nanoseconds from now
// without allocating.
func (e *Engine) AfterCall(d Time, cb Callback, a1, a2 any, u uint64) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.AtCall(e.now+d, cb, a1, a2, u)
}

// Stop aborts the current Run/RunUntil after the currently executing event
// returns.
func (e *Engine) Stop() { e.stopped = true }

// peekNext surfaces the earliest pending event — refilling the drain run
// from the wheel as needed — without consuming it. The refill mutations are
// invisible to callers: they never change pop order.
func (e *Engine) peekNext() *event {
	for e.drainPos >= len(e.drain) {
		if !e.refill() {
			return nil
		}
	}
	return e.drain[e.drainPos]
}

// step executes the next event. It reports false when the queue is empty.
func (e *Engine) step(limit Time, bounded bool) bool {
	for {
		next := e.peekNext()
		if next == nil {
			return false
		}
		if bounded && next.at > limit {
			e.now = limit
			return false
		}
		e.drain[e.drainPos] = nil
		e.drainPos++
		e.total--
		if next.cancel {
			e.release(next)
			continue
		}
		e.live--
		e.now = next.at
		e.fired++
		cb, a1, a2, u := next.cb, next.a1, next.a2, next.u
		e.release(next)
		cb(a1, a2, u)
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(0, false) {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. It stops early if Stop is called.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && e.step(t, true) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}
