// Package proc models the main processor of a FLASH node at the level the
// fault-containment experiments need: a windowed issue engine for memory
// operations (the R10000 sustains several outstanding misses), pause/resume
// for recovery (during which the recovery agent owns the processor), and an
// optional wrong-path speculation mode that issues exclusive fetches the
// program never meant to make (§3.1, §3.3).
package proc

import (
	"fmt"
	"slices"

	"flashfc/internal/coherence"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
)

// OpKind is the kind of a memory operation.
type OpKind int

const (
	OpRead OpKind = iota
	OpReadExclusive
	OpWrite
)

// Op is one memory operation submitted to the CPU.
type Op struct {
	Kind  OpKind
	Addr  coherence.Addr
	Token uint64 // OpWrite only
	// Done receives the completion. May be nil.
	Done func(magic.Result)
	// DoneAt, if set, receives the completion together with the
	// operation's Addr, so one bound function can complete any number of
	// operations without a closure per operation.
	DoneAt func(coherence.Addr, magic.Result)
}

// CPU issues memory operations through the node's MAGIC controller with a
// bounded number outstanding.
type CPU struct {
	ID     int
	E      *sim.Engine
	Ctrl   *magic.Controller
	Window int

	inflight int
	// queue[head:] are the operations waiting to issue.
	queue  []Op
	head   int
	paused bool
	// onDrained fires once when paused and the last in-flight op ends.
	onDrained func()

	// freeRecs pools in-flight operation records so the issue/retire
	// cycle allocates nothing in steady state.
	freeRecs []*opRecord
}

// New returns a CPU with the given outstanding-operation window.
func New(e *sim.Engine, ctrl *magic.Controller, window int) *CPU {
	return &CPU{ID: ctrl.ID, E: e, Ctrl: ctrl, Window: window}
}

// opRecord carries one in-flight operation through its MAGIC round trip.
// done is bound to the record once when the record is minted, so reissuing
// from the pool costs no allocation.
type opRecord struct {
	cpu  *CPU
	op   Op
	done func(magic.Result)
}

func (c *CPU) newRecord(op Op) *opRecord {
	var r *opRecord
	if n := len(c.freeRecs); n > 0 {
		r = c.freeRecs[n-1]
		c.freeRecs[n-1] = nil
		c.freeRecs = c.freeRecs[:n-1]
	} else {
		r = &opRecord{cpu: c}
		r.done = r.retire
	}
	r.op = op
	return r
}

// retire completes the record's operation: the submitter's callback, drain notification, and the next issue round. The record
// returns to the pool first — the op is copied out — so a completion that
// submits new work can reuse it immediately.
func (r *opRecord) retire(res magic.Result) {
	c, op := r.cpu, r.op
	r.op = Op{}
	c.freeRecs = append(c.freeRecs, r)
	c.inflight--
	if op.Done != nil {
		op.Done(res)
	}
	if op.DoneAt != nil {
		op.DoneAt(op.Addr, res)
	}
	if c.paused && c.inflight == 0 && c.onDrained != nil {
		fn := c.onDrained
		c.onDrained = nil
		fn()
	}
	c.issue()
	if len(c.queue) == 0 && cap(c.queue) > queueKeep {
		c.queue = nil
	}
}

// Submit queues an operation for issue.
func (c *CPU) Submit(op Op) {
	if c.head > 0 && len(c.queue) == cap(c.queue) && c.head >= len(c.queue)/2 {
		// Reclaim the issued front in place instead of growing.
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, op)
	c.issue()
}

// Reserve makes room for n more queued operations, so a caller about to
// submit a known number of them pays for one backing array instead of a
// doubling series.
func (c *CPU) Reserve(n int) { c.queue = slices.Grow(c.queue, n) }

// queueKeep is the largest backing array (in operations) a queue emptied by
// a completion holds on to. Steady streams of a few operations reuse theirs;
// the array a whole-memory sweep queued up front is released as soon as its
// last operation issues, rather than staying pinned in every finished
// machine.
const queueKeep = 64

// QueueLen reports operations waiting to issue.
func (c *CPU) QueueLen() int { return len(c.queue) - c.head }

// Inflight reports operations issued but not completed.
func (c *CPU) Inflight() int { return c.inflight }

// Pause stops issuing new operations (recovery owns the processor).
// Already-issued operations are completed or aborted by the controller.
func (c *CPU) Pause() { c.paused = true }

// Resume restarts issue after recovery.
func (c *CPU) Resume() {
	c.paused = false
	c.issue()
}

// Paused reports whether the CPU is paused.
func (c *CPU) Paused() bool { return c.paused }

func (c *CPU) issue() {
	for !c.paused && c.inflight < c.Window && c.head < len(c.queue) {
		op := c.queue[c.head]
		c.queue[c.head] = Op{}
		c.head++
		c.inflight++
		done := c.newRecord(op).done
		switch op.Kind {
		case OpRead:
			c.Ctrl.Read(op.Addr, done)
		case OpReadExclusive:
			c.Ctrl.ReadExclusive(op.Addr, done)
		case OpWrite:
			c.Ctrl.Write(op.Addr, op.Token, done)
		}
	}
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
}

// Snapshot is the durable processor state at a quiescent point: the pause
// flag. Everything else (the issue queue, in-flight records) must be empty,
// which Snapshot enforces.
type Snapshot struct {
	Paused bool
}

// Snapshot captures the processor state, panicking if operations are
// still queued or in flight.
func (c *CPU) Snapshot() Snapshot {
	if c.inflight > 0 || c.QueueLen() > 0 {
		panic(fmt.Sprintf("proc: snapshot of CPU %d with %d in flight, %d queued", c.ID, c.inflight, c.QueueLen()))
	}
	return Snapshot{Paused: c.paused}
}

// Restore installs a snapshot's state on a freshly built CPU.
func (c *CPU) Restore(s Snapshot) {
	c.paused = s.Paused
}

// Speculate issues a wrong-path exclusive fetch of addr whose result is
// discarded: the §3.3 hazard where incorrect speculation pulls an arbitrary
// line exclusive into a cache that may subsequently fail.
func (c *CPU) Speculate(addr coherence.Addr) {
	c.Ctrl.ReadExclusive(addr, discard)
}

// discard is the completion of a speculative fetch: the result is unused.
func discard(magic.Result) {}
