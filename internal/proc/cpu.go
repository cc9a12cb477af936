// Package proc models the main processor of a FLASH node at the level the
// fault-containment experiments need: a windowed issue engine for memory
// operations (the R10000 sustains several outstanding misses), pause/resume
// for recovery (during which the recovery agent owns the processor), and an
// optional wrong-path speculation mode that issues exclusive fetches the
// program never meant to make (§3.1, §3.3).
package proc

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
)

// OpKind is the kind of a memory operation.
type OpKind uint32

const (
	OpRead OpKind = iota
	OpReadExclusive
	OpWrite
)

// Op is one memory operation submitted to the CPU.
type Op struct {
	Kind OpKind
	// more is how many reads of a range (SubmitReads) follow Addr, each
	// Token bytes past the one before. It shares Kind's word, so an Op
	// stays 40 bytes.
	more uint32
	Addr coherence.Addr
	// Token is the value an OpWrite stores; a read range keeps its step
	// here.
	Token uint64
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
	queue []Op
	head  int
	// handed marks a queue that SubmitAll has filled: it is let go as
	// soon as it drains, whatever its size.
	handed bool
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

// SubmitAll queues ops for issue, in order, exactly as len(ops) Submit
// calls in a row would. An idle CPU takes ops itself as its queue, with no
// copy, and owns it from then on: the caller must not touch ops again. A
// busy one appends them. Either way the CPU lets its queue go as soon as
// the last of them has issued, so a machine whose CPUs have finished pins
// none of it.
func (c *CPU) SubmitAll(ops []Op) {
	if len(ops) == 0 {
		return
	}
	if c.head == len(c.queue) {
		c.queue, c.head = ops, 0
	} else {
		c.queue = append(c.queue, ops...)
	}
	c.handed = true
	c.issue()
}

// SubmitReads queues n reads, of addr, addr+step, addr+2*step and so on,
// as one queue entry, each completing through doneAt. The CPU expands the
// range one read per issue at the entry's own queue position, so the reads
// issue and complete exactly as n Submit calls in a row would, and anything
// submitted later — a read resubmitted from doneAt included — queues behind
// all of them.
func (c *CPU) SubmitReads(addr coherence.Addr, n int, step coherence.Addr, doneAt func(coherence.Addr, magic.Result)) {
	if n < 1 {
		return
	}
	c.Submit(Op{Kind: OpRead, more: uint32(n - 1), Addr: addr, Token: uint64(step), DoneAt: doneAt})
}

// queueKeep is the largest backing array (in entries) a queue emptied by a
// completion holds on to. Steady streams of a few operations reuse theirs;
// a bigger array is released as soon as its last entry issues, rather than
// staying pinned in every finished machine.
const queueKeep = 64

// QueueLen reports operations waiting to issue, counting every read of a
// queued range.
func (c *CPU) QueueLen() int {
	n := 0
	for i := c.head; i < len(c.queue); i++ {
		n += 1 + int(c.queue[i].more)
	}
	return n
}

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
		next := &c.queue[c.head]
		op := *next
		if op.more > 0 {
			// The range's first read issues; the rest keep its place,
			// a plain read once only one is left.
			next.more--
			next.Addr += coherence.Addr(op.Token)
			if next.more == 0 {
				next.Token = 0
			}
			op.more, op.Token = 0, 0
		} else {
			*next = Op{}
			c.head++
		}
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
		if c.handed {
			c.queue, c.handed = nil, false
		}
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
