package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
)

// traceValidationConfig is fastValidationConfig shrunk further: the span
// export records every packet hop, so a smaller machine keeps the golden
// file reviewable.
func traceValidationConfig() ValidationConfig {
	cfg := fastValidationConfig()
	cfg.Nodes = 4
	cfg.MemBytes = 32 << 10
	cfg.L2Bytes = 8 << 10
	cfg.FillLines = 8
	return cfg
}

// spanJSONFor runs a fixed node-failure validation with a fresh tracer and
// returns the Chrome trace-event export.
func spanJSONFor(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := traceValidationConfig()
	cfg.Trace = trace.New()
	r := Validation(cfg, fault.NodeFailure, seed)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	return buf.Bytes()
}

// The span export of a fixed small run is pinned as a golden file, just
// like the metrics snapshot: any drift in span placement, packet flow ids,
// the warm-up, the snapshot/fork cycle or export encoding shows as a diff.
// The run is a fork, so the trace covers the forked portion only (the
// warm-up is untraced) and timestamps start at the warm-up's end clock.
// Regenerate intentional changes with
// `go test ./internal/experiments -run TraceGolden -update`.
func TestTraceGoldenSpanExport(t *testing.T) {
	got := spanJSONFor(t, 7)
	if again := spanJSONFor(t, 7); !bytes.Equal(got, again) {
		t.Fatal("traced run is not reproducible")
	}
	golden := filepath.Join("testdata", "trace_node_failure_seed7.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("span export differs from golden file %s (regenerate intentional changes with -update)", golden)
	}
}

// The export must not depend on host-side concurrency: identical runs on
// 1 and 8 concurrent goroutines (each with its own tracer) produce
// byte-identical span JSON.
func TestTraceSpanExportIdenticalAcrossConcurrency(t *testing.T) {
	runConcurrent := func(workers int) []byte {
		outs := make([][]byte, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i] = spanJSONFor(t, 7)
			}(i)
		}
		wg.Wait()
		for i := 1; i < workers; i++ {
			if !bytes.Equal(outs[0], outs[i]) {
				t.Errorf("concurrent run %d diverged from run 0", i)
			}
		}
		return outs[0]
	}
	seq := runConcurrent(1)
	par := runConcurrent(8)
	if !bytes.Equal(seq, par) {
		t.Fatal("span JSON differs between 1 and 8 concurrent runs")
	}
}

// Critical-path invariants on a real recovery: one root named "recovery",
// non-negative self-times that sum exactly to the root duration.
func TestTraceCriticalPathInvariants(t *testing.T) {
	cfg := fastValidationConfig()
	cfg.Trace = trace.New()
	r := Validation(cfg, fault.NodeFailure, 7)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	paths := cfg.Trace.CriticalPaths()
	if len(paths) == 0 {
		t.Fatal("no critical paths on a recovered run")
	}
	for _, p := range paths {
		if p.RootName != "recovery" {
			t.Errorf("root span named %q, want recovery", p.RootName)
		}
		var sum sim.Time
		for _, s := range p.Steps {
			if s.Self < 0 {
				t.Errorf("step %s has negative self time %v", s.Name, s.Self)
			}
			sum += s.Self
		}
		if sum != p.Duration() {
			t.Errorf("self-time sum %v != root duration %v", sum, p.Duration())
		}
		if d := p.Dominant(); d.Self <= 0 {
			t.Errorf("dominant step %s has self %v, want > 0", d.Name, d.Self)
		}
	}
}

// The span tree of a node-failure recovery contains the expected phase
// hierarchy under each routing strategy, and every parent link points at an
// existing earlier span. The drain spans follow the strategy's drain: the
// paper's two phases vote and confirm, incremental's single phase only
// votes, and adaptive does not drain.
func TestTraceSpanTreeShape(t *testing.T) {
	for _, tc := range []struct {
		routing      string
		drain, never []string
	}{
		{"paper", []string{"drain-attempt", "drain-tau-vote", "drain-tau-confirm"}, nil},
		{"incremental", []string{"drain-attempt", "drain-tau-vote"}, []string{"drain-tau-confirm"}},
		{"adaptive", nil, []string{"drain-attempt", "drain-tau-vote", "drain-tau-confirm"}},
	} {
		t.Run(tc.routing, func(t *testing.T) {
			cfg := fastValidationConfig()
			cfg.Routing = tc.routing
			cfg.Trace = trace.New()
			r := Validation(cfg, fault.NodeFailure, 7)
			if !r.OK() {
				t.Fatalf("run failed: %s", r.Note)
			}
			spans := cfg.Trace.SnapshotSpans()
			seen := map[string]bool{}
			for _, s := range spans {
				seen[s.Name] = true
				if s.Parent != 0 {
					if s.Parent >= s.ID {
						t.Errorf("span %s#%d has non-earlier parent %d", s.Name, s.ID, s.Parent)
					}
				} else if s.Name != "recovery" {
					t.Errorf("non-root span %s has no parent", s.Name)
				}
				if s.Open {
					t.Errorf("span %s still open after recovery", s.Name)
				}
			}
			for _, want := range append([]string{
				"recovery", "node-recovery",
				"P1-initiation", "P2-dissemination", "P3-interconnect", "P4-coherence",
				"gossip-round", "route-reprogram", "cache-flush", "flush-barrier", "dir-scan", "scan-chunk",
			}, tc.drain...) {
				if !seen[want] {
					t.Errorf("span tree lacks %q (have %v)", want, seen)
				}
			}
			for _, never := range tc.never {
				if seen[never] {
					t.Errorf("span tree has %q", never)
				}
			}
			// Packet lifecycle and denial points must be present too.
			cats := map[string]bool{}
			names := map[string]bool{}
			for _, p := range cfg.Trace.Points() {
				cats[p.Cat] = true
				names[p.Name] = true
			}
			if !cats["pkt"] {
				t.Error("no packet points recorded")
			}
			for _, want := range []string{"inject", "hop", "deliver"} {
				if !names[want] {
					t.Errorf("no %q packet points recorded", want)
				}
			}
		})
	}
}

// A validation run's trace explains its containment window: once the
// machine-wide recovery completes, the verify sweep that follows records no
// packet point, so none lies past the root recovery span's end — while every
// packet up to it is traced.
func TestValidationTraceStopsPacketsAtRecovery(t *testing.T) {
	cfg := fastValidationConfig()
	cfg.Trace = trace.New()
	r := Validation(cfg, fault.NodeFailure, 7)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	var end sim.Time
	for _, s := range cfg.Trace.Spans() {
		if s.Parent == 0 && s.Name == "recovery" && s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		t.Fatal("no closed recovery span")
	}
	injected := 0
	for _, p := range cfg.Trace.Points() {
		if p.Cat != "pkt" {
			continue
		}
		if p.T > end {
			t.Fatalf("packet point %+v after the recovery span ends at %v", p, end)
		}
		if p.Name == "inject" {
			injected++
		}
	}
	if sent := lanePackets(r.Metrics.Counters); injected == 0 || uint64(injected) >= sent {
		t.Errorf("%d packets traced of %d sent: want the fault's and recovery's, not the sweep's", injected, sent)
	}
}

// lanePackets sums the per-lane packet counters: every packet the fabric
// was handed.
func lanePackets(counters map[string]uint64) uint64 {
	var n uint64
	for name, v := range counters {
		if strings.HasPrefix(name, "interconnect.lane.") && strings.HasSuffix(name, ".packets") {
			n += v
		}
	}
	return n
}
