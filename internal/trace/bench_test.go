package trace

import (
	"testing"

	"flashfc/internal/sim"
)

// BenchmarkTracerEnabledSpanPath is the cost of one span with tracing on:
// the enabled counterpart of TestNilTracerAllocatesNothing, for judging
// what turning tracing on adds to every recovery charge and send.
func BenchmarkTracerEnabledSpanPath(b *testing.B) {
	tr := New()
	root := tr.EnsureRoot(0, "recovery")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(sim.Time(i), 0, "gossip-round", root, int64(i))
		tr.End(sim.Time(i)+1, id)
	}
}
