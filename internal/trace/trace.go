// Package trace records what happened in a simulated machine as one point
// stream and one span tree (span.go). Every point carries a category: "pkt"
// (packet lifecycle), "magic" (controller events), or one of the timeline
// kinds below — fault injections, per-node recovery phase transitions and
// recovery completions. The timeline is the non-packet, non-MAGIC points: it
// is what the cmd/flashsim -trace flag prints (Dump), what tests use to
// assert event ordering (Timeline), and tid 3 of the Chrome export.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"flashfc/internal/sim"
)

// Timeline kinds: the Cat of a timeline point. Its Name is the detail (the
// fault, the phase entered, the completion summary).
const (
	KindFault    = "fault"
	KindPhase    = "phase"
	KindComplete = "complete"
)

// Tracer accumulates the span tree and the point stream.
//
// A Tracer is internally synchronized: every method may be called from
// concurrent goroutines (e.g. a tracer observed by test harnesses while a
// campaign worker drives the machine). Points from different runs still
// interleave into one stream, so the batch drivers keep rejecting a shared
// tracer for multi-run campaigns.
type Tracer struct {
	// Deterministic, set at construction, makes every read-side ordering a
	// pure function of the recorded values: points sort by all of their
	// fields instead of keeping insertion order among equal timestamps.
	// Partitioned machines record from concurrent region workers, so their
	// insertion order is scheduling noise; sorting by the full tuple makes
	// equal entries interchangeable and the exported bytes bit-identical at
	// any worker count. Classic single-threaded machines leave this off and
	// keep the insertion-order tiebreak (golden traces depend on it).
	Deterministic bool

	mu        sync.Mutex
	spans     []Span
	points    []Point
	openSpans map[SpanID]struct{}
	rootSpan  SpanID   // currently open root span, 0 if none
	last      sim.Time // largest timestamp observed on any record path
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record records a timeline point of the given kind whose Name is the
// formatted detail.
func (t *Tracer) Record(ts sim.Time, node int, kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.Point(ts, node, kind, fmt.Sprintf(format, args...), 0, 0, 0)
}

// Timeline returns the timeline points in time order: stably by timestamp
// (same-timestamp points keep recording order), or by the full field tuple
// on a Deterministic tracer.
func (t *Tracer) Timeline() []Point {
	var out []Point
	for _, p := range t.Points() {
		if pointTid(p.Cat) == tidTimeline {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Dump writes the timeline to w, one line per point.
func (t *Tracer) Dump(w io.Writer) {
	for _, p := range t.Timeline() {
		who := "machine"
		if p.Node >= 0 {
			who = fmt.Sprintf("node %d", p.Node)
		}
		fmt.Fprintf(w, "%12v  %-8s %-9s %s\n", p.T, who, p.Cat, p.Name)
	}
}
