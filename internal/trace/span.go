package trace

import (
	"sort"

	"flashfc/internal/sim"
)

// Span-based causal tracing:
//
//   - A Span is a named interval with a parent, forming the recovery tree:
//     machine-wide "recovery" root → per-node "node-recovery" (one per
//     epoch) → P1–P4 phase spans → gossip rounds, drain attempts, τ
//     agreement sub-phases, the cache flush and the directory sweep.
//   - A Point is an instant with an optional causal flow id, used for
//     packet lifecycles (inject → hop → deliver/drop, linked by the
//     packet's flow id), MAGIC denials/triggers, and the timeline
//     (trace.go).
//
// Every method is nil-safe and allocation-free on a nil *Tracer: arguments
// are scalars and static strings, so instrumented hot paths cost one
// predicted branch when tracing is disabled — the same contract as the
// metrics instruments.

// SpanID identifies one span within a Tracer. 0 means "no span": it is the
// parent of roots, the return value of every method on a nil tracer, and a
// valid no-op argument to End.
type SpanID uint64

// Span is one named interval in the recovery tree.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for roots
	Name   string
	Node   int // -1 for machine-wide spans
	// Arg is a name-specific argument: the epoch of a node-recovery span,
	// the round of a gossip-round span, the attempt of a drain span.
	Arg   int64
	Start sim.Time
	End   sim.Time // meaningful once Open is false
	Open  bool
}

// Point is one instantaneous event with an optional causal link.
type Point struct {
	T    sim.Time
	Node int
	Cat  string // "pkt" (packet lifecycle), "magic" (controller events), or a timeline kind
	Name string
	// Flow links the points of one causal chain (a packet's lifetime from
	// injection to delivery or destruction). 0 means unlinked.
	Flow uint64
	// A and B are name-specific scalar arguments (destination and lane for
	// packet points, address and requester for MAGIC points).
	A, B int64
}

// observe tracks the largest timestamp seen, used to clamp still-open spans
// at export time. Callers must hold t.mu.
func (t *Tracer) observe(ts sim.Time) {
	if ts > t.last {
		t.last = ts
	}
}

// Begin opens a span and returns its id. parent 0 makes it a root.
func (t *Tracer) Begin(ts sim.Time, node int, name string, parent SpanID, arg int64) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.begin(ts, node, name, parent, arg)
}

// begin is Begin with t.mu held.
func (t *Tracer) begin(ts sim.Time, node int, name string, parent SpanID, arg int64) SpanID {
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Node: node, Arg: arg,
		Start: ts, Open: true,
	})
	if t.openSpans == nil {
		t.openSpans = map[SpanID]struct{}{}
	}
	t.openSpans[id] = struct{}{}
	t.observe(ts)
	return id
}

// End closes a span. Any still-open descendants are closed first at the
// same timestamp — a child cannot outlive its parent, which keeps the tree
// well-nested even when a restart abandons work mid-flight. Ending an
// already-closed span (or SpanID 0) is a no-op.
func (t *Tracer) End(ts sim.Time, id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end(ts, id)
}

// end is End with t.mu held.
func (t *Tracer) end(ts sim.Time, id SpanID) {
	if id == 0 || int(id) > len(t.spans) {
		return
	}
	s := &t.spans[id-1]
	if !s.Open {
		return
	}
	for oid := range t.openSpans {
		if oid == id {
			continue
		}
		for p := t.spans[oid-1].Parent; p != 0; p = t.spans[p-1].Parent {
			if p == id {
				o := &t.spans[oid-1]
				o.End, o.Open = ts, false
				delete(t.openSpans, oid)
				break
			}
		}
	}
	s.End, s.Open = ts, false
	delete(t.openSpans, id)
	if t.rootSpan == id {
		t.rootSpan = 0
	}
	t.observe(ts)
}

// EnsureRoot returns the currently open root span, opening one (node -1,
// parent 0) if none is open. Every recovery participant calls this on
// entry; the first one in creates the machine-wide root all node spans
// attach to.
func (t *Tracer) EnsureRoot(ts sim.Time, name string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rootSpan == 0 {
		t.rootSpan = t.begin(ts, -1, name, 0, 0)
	}
	return t.rootSpan
}

// EndRoot closes the open root span (and its open descendants), if any. A
// later EnsureRoot starts a fresh root — one root per machine-wide recovery.
func (t *Tracer) EndRoot(ts sim.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rootSpan != 0 {
		t.end(ts, t.rootSpan)
	}
}

// Point records an instantaneous event.
func (t *Tracer) Point(ts sim.Time, node int, cat, name string, flow uint64, a, b int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.points = append(t.points, Point{T: ts, Node: node, Cat: cat, Name: name, Flow: flow, A: a, B: b})
	t.observe(ts)
}

// Spans returns a copy of the span list in creation order. Open spans are
// returned as recorded (Open true, zero End); use SnapshotSpans for a view
// with open spans clamped to the last observed timestamp.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Points returns a copy of the point list — in recording order, or sorted
// by the full field tuple on a Deterministic tracer (concurrent region
// workers make recording order scheduling noise; the full-tuple sort makes
// equal points interchangeable, so the result is host-independent).
func (t *Tracer) Points() []Point {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Point(nil), t.points...)
	if t.Deterministic {
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.T != b.T {
				return a.T < b.T
			}
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			if a.Cat != b.Cat {
				return a.Cat < b.Cat
			}
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			if a.Flow != b.Flow {
				return a.Flow < b.Flow
			}
			if a.A != b.A {
				return a.A < b.A
			}
			return a.B < b.B
		})
	}
	return out
}

// SnapshotSpans returns the span list with every still-open span closed at
// the largest timestamp the tracer has observed (never before the span's
// own start) — the deterministic view the exporters and the critical-path
// analysis consume.
func (t *Tracer) SnapshotSpans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans...)
	for i := range out {
		if out[i].Open {
			out[i].End = t.last
			if out[i].End < out[i].Start {
				out[i].End = out[i].Start
			}
			out[i].Open = false
		}
	}
	return out
}
