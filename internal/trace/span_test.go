package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"flashfc/internal/sim"
)

func TestNilTracerSpanAPIIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin(1, 0, "x", 0, 0); id != 0 {
		t.Fatalf("nil Begin = %d, want 0", id)
	}
	tr.End(2, 1)
	tr.Point(3, 0, "pkt", "inject", 1, 0, 0)
	tr.Record(4, 0, KindPhase, "n")
	if id := tr.EnsureRoot(5, "recovery"); id != 0 {
		t.Fatalf("nil EnsureRoot = %d, want 0", id)
	}
	tr.EndRoot(6)
	if tr.Spans() != nil || tr.Points() != nil || tr.SnapshotSpans() != nil {
		t.Fatal("nil tracer returned non-nil span data")
	}
	if tr.CriticalPaths() != nil {
		t.Fatal("nil tracer returned critical paths")
	}
}

// Tracing off is a nil *Tracer, and every recovery charge and send calls
// it: each method must return without allocating.
func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	for name, f := range map[string]func(){
		"Begin":  func() { tr.Begin(1, 0, "node-recovery", 0, 1) },
		"Point":  func() { tr.Point(2, 0, "pkt", "inject", 1, 3, 0) },
		"End":    func() { tr.End(3, 1) },
		"Record": func() { tr.Record(4, 0, KindPhase, "epoch=%d", 1) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("nil tracer %s allocates %.0f per call, want 0", name, allocs)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New()
	root := tr.EnsureRoot(10, "recovery")
	if root == 0 {
		t.Fatal("EnsureRoot returned 0")
	}
	if again := tr.EnsureRoot(20, "recovery"); again != root {
		t.Fatalf("second EnsureRoot = %d, want %d", again, root)
	}
	node := tr.Begin(15, 3, "node-recovery", root, 1)
	phase := tr.Begin(15, 3, "P1-initiation", node, 0)
	tr.End(40, phase)
	tr.End(50, node)
	tr.EndRoot(60)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Open {
			t.Errorf("span %s still open", s.Name)
		}
	}
	if spans[1].Parent != root || spans[2].Parent != node {
		t.Errorf("parent links wrong: %+v", spans)
	}
	// A new recovery opens a fresh root.
	if r2 := tr.EnsureRoot(100, "recovery"); r2 == root {
		t.Fatal("EnsureRoot reused a closed root")
	}
}

// Ending a span must close its still-open descendants at the same
// timestamp, keeping the tree well-nested across restarts.
func TestEndClosesOpenDescendants(t *testing.T) {
	tr := New()
	root := tr.Begin(0, -1, "recovery", 0, 0)
	node := tr.Begin(1, 2, "node-recovery", root, 1)
	phase := tr.Begin(2, 2, "P2-dissemination", node, 0)
	round := tr.Begin(3, 2, "gossip-round", phase, 1)
	tr.End(9, node) // restart abandons phase and round mid-flight

	byID := map[SpanID]Span{}
	for _, s := range tr.Spans() {
		byID[s.ID] = s
	}
	for _, id := range []SpanID{node, phase, round} {
		s := byID[id]
		if s.Open || s.End != 9 {
			t.Errorf("span %s: open=%v end=%v, want closed at 9", s.Name, s.Open, s.End)
		}
	}
	if s := byID[root]; !s.Open {
		t.Error("root should remain open")
	}
	// Ending an already-closed span is a no-op.
	tr.End(20, phase)
	for _, s := range tr.Spans() {
		if s.ID == phase && s.End != 9 {
			t.Errorf("re-End moved span end to %v", s.End)
		}
	}
}

func TestSnapshotClampsOpenSpans(t *testing.T) {
	tr := New()
	tr.Begin(5, -1, "recovery", 0, 0)
	tr.Point(42, 0, "pkt", "inject", 1, 0, 0) // advances the observed clock
	snap := tr.SnapshotSpans()
	if len(snap) != 1 || snap[0].Open || snap[0].End != 42 {
		t.Fatalf("snapshot = %+v, want closed at 42", snap)
	}
}

// Self-times along a critical path telescope to exactly the root duration.
func TestCriticalPathSelfTimesTelescope(t *testing.T) {
	tr := New()
	root := tr.Begin(0, -1, "recovery", 0, 0)
	a := tr.Begin(10, 0, "node-recovery", root, 1)
	p2 := tr.Begin(20, 0, "P2-dissemination", a, 0)
	r1 := tr.Begin(20, 0, "gossip-round", p2, 1)
	tr.End(30, r1)
	r2 := tr.Begin(30, 0, "gossip-round", p2, 2)
	tr.End(55, r2)
	tr.End(60, p2)
	tr.End(80, a)
	// A second node that finishes earlier must not be on the path.
	b := tr.Begin(12, 1, "node-recovery", root, 1)
	tr.End(70, b)
	tr.End(100, root)

	paths := tr.CriticalPaths()
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	p := paths[0]
	if p.Duration() != 100 {
		t.Fatalf("root duration %v, want 100", p.Duration())
	}
	var sum sim.Time
	names := []string{}
	for _, s := range p.Steps {
		if s.Self < 0 {
			t.Errorf("negative self time on %s: %v", s.Name, s.Self)
		}
		sum += s.Self
		names = append(names, s.Name)
	}
	if sum != p.Duration() {
		t.Fatalf("self-time sum %v != root duration %v (steps %v)", sum, p.Duration(), p.Steps)
	}
	// Chronological depth-first: both gossip rounds appear with their own
	// self-times; node b (concurrent with a, finishing earlier) does not.
	want := []string{"recovery", "node-recovery", "P2-dissemination", "gossip-round", "gossip-round"}
	if len(names) != len(want) {
		t.Fatalf("steps %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("steps %v, want %v", names, want)
		}
	}
	if p.Steps[3].Arg != 1 || p.Steps[4].Arg != 2 {
		t.Errorf("gossip rounds out of order: %+v", p.Steps[3:])
	}
	// node a (ends at 80, clamped window 10..80) beats node b (12..70).
	if p.Steps[1].Arg != 1 || p.Steps[1].Node != 0 {
		t.Errorf("critical node step = %+v, want node 0", p.Steps[1])
	}
	if d := p.Dominant(); d.Name == "" {
		t.Error("Dominant returned empty step")
	}
}

func TestCriticalReportMentionsDominant(t *testing.T) {
	tr := New()
	root := tr.Begin(0, -1, "recovery", 0, 0)
	n := tr.Begin(0, 0, "node-recovery", root, 1)
	tr.End(90, n)
	tr.End(100, root)
	var buf bytes.Buffer
	tr.WriteCriticalReport(&buf)
	out := buf.String()
	for _, want := range []string{"critical path", "dominant:", "self-time sum"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestChromeJSONValidAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New()
		root := tr.EnsureRoot(0, "recovery")
		n := tr.Begin(5, 1, "node-recovery", root, 1)
		tr.Point(7, 1, "pkt", "inject", 3, 2, 1)
		tr.Point(8, 1, "magic", "nak-sent", 0, 64, 2)
		tr.Record(9, 1, KindPhase, "P1-initiation")
		tr.End(50, n)
		tr.EndRoot(60)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical tracers produced different Chrome JSON")
	}
	var evs []map[string]any
	if err := json.Unmarshal(a.Bytes(), &evs); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace array")
	}
	for i, ev := range evs {
		for _, key := range []string{"ph", "ts", "pid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
	}
}

// Same-timestamp timeline points keep recording order, also after a later
// Record lands earlier in time; a Deterministic tracer orders them by the
// full field tuple instead.
func TestEventOrderingStableAtEqualTimestamps(t *testing.T) {
	tr := New()
	tr.Record(5, 2, KindPhase, "first")
	tr.Record(5, 1, KindPhase, "second")
	tr.Record(5, 0, KindPhase, "third")
	tr.Record(1, 3, KindPhase, "zeroth")
	names := func(ps []Point) []string {
		var out []string
		for _, p := range ps {
			out = append(out, p.Name)
		}
		return out
	}
	want := []string{"zeroth", "first", "second", "third"}
	if got := names(tr.Timeline()); !slices.Equal(got, want) {
		t.Fatalf("Timeline order %v, want %v", got, want)
	}
	tr.Deterministic = true
	want = []string{"zeroth", "third", "second", "first"} // by node at t=5
	if got := names(tr.Timeline()); !slices.Equal(got, want) {
		t.Fatalf("deterministic Timeline order %v, want %v", got, want)
	}
}
