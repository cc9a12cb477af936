package trace

import (
	"strings"
	"sync"
	"testing"

	"flashfc/internal/sim"
)

func TestRecordAndOrder(t *testing.T) {
	tr := New()
	tr.Record(30, 1, KindPhase, "P2")
	tr.Record(10, -1, KindFault, "node failure")
	tr.Record(20, 0, KindComplete, "epoch=%d", 1)
	evs := tr.Timeline()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Cat != KindFault || evs[1].Cat != KindComplete || evs[2].Cat != KindPhase {
		t.Fatalf("ordering wrong: %v", evs)
	}
	if evs[1].Name != "epoch=1" {
		t.Fatalf("Record formatted %q, want epoch=1", evs[1].Name)
	}
}

// Regression for the campaign data race: a tracer shared across goroutines
// must be safe under the race detector.
func TestConcurrentRecord(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(sim.Time(i), g, KindPhase, "g%d e%d", g, i)
				_ = tr.Timeline()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Timeline()); got != 8*100 {
		t.Fatalf("Timeline len = %d", got)
	}
}

// The timeline is the points of every category but "pkt" and "magic".
func TestTimelineFiltersKindsAndNilSafety(t *testing.T) {
	tr := New()
	tr.Record(1, 0, KindPhase, "a")
	tr.Point(2, 0, "pkt", "inject", 1, 0, 0)
	tr.Point(2, 0, "magic", "nak-sent", 0, 0, 0)
	tr.Record(3, 1, KindPhase, "c")
	if got := tr.Timeline(); len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("Timeline = %v", got)
	}
	if got := len(tr.Points()); got != 4 {
		t.Fatalf("Points len = %d, want 4", got)
	}
	var nilTr *Tracer
	nilTr.Record(1, 0, KindPhase, "ignored") // must not panic
	if nilTr.Timeline() != nil {
		t.Fatal("nil tracer returned a timeline")
	}
	var b strings.Builder
	nilTr.Dump(&b)
	if b.Len() != 0 {
		t.Fatalf("nil tracer dumped %q", b.String())
	}
}

func TestEventString(t *testing.T) {
	tr := New()
	tr.Record(sim.Millisecond, 3, KindPhase, "P4")
	tr.Record(2*sim.Millisecond, -1, KindFault, "node 2 failure")
	var b strings.Builder
	tr.Dump(&b)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump: %q", b.String())
	}
	want := []string{
		"     1.000ms  node 3   phase     P4",
		"     2.000ms  machine  fault     node 2 failure",
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}
