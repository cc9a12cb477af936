package trace

import "flashfc/internal/sim"

// State is a frozen deep copy of a tracer's full contents — the span/point
// stream and the open-span bookkeeping — taken at a machine snapshot so a
// forked run's tracer can resume recording exactly where the warm-up left
// off. Span and Point values contain no pointers, so copying the slices
// copies everything.
type State struct {
	spans  []Span
	points []Point
	open   map[SpanID]struct{}
	root   SpanID
	last   sim.Time
}

// SnapshotState returns a frozen copy of the tracer's contents, or nil for
// a nil tracer (tracing disabled).
func (t *Tracer) SnapshotState() *State {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &State{
		spans:  append([]Span(nil), t.spans...),
		points: append([]Point(nil), t.points...),
		root:   t.rootSpan,
		last:   t.last,
	}
	if t.openSpans != nil {
		s.open = make(map[SpanID]struct{}, len(t.openSpans))
		for id := range t.openSpans {
			s.open[id] = struct{}{}
		}
	}
	return s
}

// Restore overwrites the tracer's contents with a frozen state; a nil
// state resets the tracer to empty (forking from a snapshot taken without
// tracing). No-op on a nil tracer.
func (t *Tracer) Restore(s *State) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s == nil {
		t.spans = nil
		t.points = nil
		t.openSpans = nil
		t.rootSpan = 0
		t.last = 0
		return
	}
	t.spans = append([]Span(nil), s.spans...)
	t.points = append([]Point(nil), s.points...)
	t.openSpans = nil
	if s.open != nil {
		t.openSpans = make(map[SpanID]struct{}, len(s.open))
		for id := range s.open {
			t.openSpans[id] = struct{}{}
		}
	}
	t.rootSpan = s.root
	t.last = s.last
}
