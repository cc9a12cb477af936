package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flashfc/internal/sim"
)

// Critical-path analysis: for each root span, walk the span tree selecting
// at every level the chain of children that explains the window's end —
// repeatedly the child finishing latest, then the child finishing latest
// before that one started, and so on backward to the window's start. Each
// selected child is recursed into over its clamped window; the time no
// selected child covers is the span's Self time. The selected windows
// partition the root exactly, so all Self times sum to precisely the root
// span's duration: a complete latency budget for the recovery.

// CriticalStep is one span on the critical tree, in chronological
// depth-first order.
type CriticalStep struct {
	Name  string
	Node  int   // -1 for machine-wide spans
	Arg   int64 // the span's argument (epoch, round, attempt)
	Depth int   // nesting depth below the root (root = 0)
	// Start/End is this step's window: its span clamped to the part of the
	// enclosing window it was selected for.
	Start, End sim.Time
	// Self is the window time not covered by any selected child window.
	Self sim.Time
}

// CriticalPath is the longest-latency chain under one root span.
type CriticalPath struct {
	RootName   string
	Start, End sim.Time
	Steps      []CriticalStep
}

// Duration returns the root span's duration, which the steps' Self times
// sum to exactly.
func (p CriticalPath) Duration() sim.Time { return p.End - p.Start }

// Dominant returns the step with the largest Self time (on ties, the
// earliest in the walk — outermost first).
func (p CriticalPath) Dominant() CriticalStep {
	best := 0
	for i := range p.Steps {
		if p.Steps[i].Self > p.Steps[best].Self {
			best = i
		}
	}
	return p.Steps[best]
}

// CriticalPaths computes one critical path per root span, in span creation
// order. Still-open spans are clamped to the last observed timestamp.
func (t *Tracer) CriticalPaths() []CriticalPath {
	spans := t.SnapshotSpans()
	if len(spans) == 0 {
		return nil
	}
	children := make(map[SpanID][]SpanID, len(spans))
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	var paths []CriticalPath
	for _, rootID := range children[0] {
		root := spans[rootID-1]
		p := CriticalPath{RootName: root.Name, Start: root.Start, End: root.End}
		walkCritical(spans, children, rootID, root.Start, root.End, 0, &p.Steps)
		paths = append(paths, p)
	}
	return paths
}

// walkCritical appends the critical step for span id over window [ws, we]
// and recurses into the selected children. It selects, scanning backward
// from we, the child ending latest within the still-unexplained prefix;
// the selected windows are disjoint, so the span's Self is exact.
func walkCritical(spans []Span, children map[SpanID][]SpanID, id SpanID, ws, we sim.Time, depth int, out *[]CriticalStep) {
	type pick struct {
		id     SpanID
		cs, ce sim.Time
	}
	var picks []pick
	remaining := we
	for remaining > ws {
		found := false
		var best pick
		for _, cid := range children[id] {
			c := spans[cid-1]
			cs, ce := c.Start, c.End
			if cs < ws {
				cs = ws
			}
			if ce > remaining {
				ce = remaining
			}
			if ce <= cs {
				continue // outside the unexplained prefix, or empty
			}
			// Latest end wins; ties go to the longer clamped window,
			// then the earlier span id — all deterministic.
			if !found || ce > best.ce || (ce == best.ce && (cs < best.cs || (cs == best.cs && cid < best.id))) {
				best, found = pick{cid, cs, ce}, true
			}
		}
		if !found {
			break
		}
		picks = append(picks, best)
		remaining = best.cs
	}
	// picks were collected back-to-front; restore chronological order.
	sort.Slice(picks, func(i, j int) bool { return picks[i].cs < picks[j].cs })

	s := spans[id-1]
	step := CriticalStep{Name: s.Name, Node: s.Node, Arg: s.Arg, Depth: depth, Start: ws, End: we, Self: we - ws}
	for _, pk := range picks {
		step.Self -= pk.ce - pk.cs
	}
	*out = append(*out, step)
	for _, pk := range picks {
		walkCritical(spans, children, pk.id, pk.cs, pk.ce, depth+1, out)
	}
}

// Label renders the step's name with its argument when meaningful
// ("gossip-round#2", "node-recovery#1").
func (s CriticalStep) Label() string {
	if s.Arg != 0 {
		return fmt.Sprintf("%s#%d", s.Name, s.Arg)
	}
	return s.Name
}

// WriteCriticalReport prints every critical path: one line per step with
// its window and self-time (indented by depth), the telescoped sum, and
// the dominant step.
func (t *Tracer) WriteCriticalReport(w io.Writer) {
	paths := t.CriticalPaths()
	if len(paths) == 0 {
		fmt.Fprintln(w, "no recovery spans recorded")
		return
	}
	for i, p := range paths {
		fmt.Fprintf(w, "critical path %d/%d: %s, %v (from %v to %v)\n",
			i+1, len(paths), p.RootName, p.Duration(), p.Start, p.End)
		var sum sim.Time
		for _, s := range p.Steps {
			who := "machine"
			if s.Node >= 0 {
				who = fmt.Sprintf("node %d", s.Node)
			}
			sum += s.Self
			indent := strings.Repeat("  ", s.Depth)
			fmt.Fprintf(w, "  %-34s %-8s window %12v  self %12v\n",
				indent+s.Label(), who, s.End-s.Start, s.Self)
		}
		d := p.Dominant()
		pct := 0.0
		if p.Duration() > 0 {
			pct = 100 * float64(d.Self) / float64(p.Duration())
		}
		fmt.Fprintf(w, "  self-time sum %v = root duration %v\n", sum, p.Duration())
		fmt.Fprintf(w, "  dominant: %s (self %v, %.1f%% of recovery)\n", d.Label(), d.Self, pct)
	}
}
