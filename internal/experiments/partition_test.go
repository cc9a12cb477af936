package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flashfc/internal/sim"
	"flashfc/internal/trace"
)

// testPartitionConfig is a small mesh scenario that still has several
// regions (8×8 → 8 stripes) and real cross-region traffic.
func testPartitionConfig() PartitionConfig {
	return PartitionConfig{
		Nodes:      64,
		MemBytes:   64 << 10,
		L2Bytes:    16 << 10,
		OpsPerNode: 32,
		Deadline:   2 * sim.Second,
	}
}

// metricsAndTrace runs the fill scenario and returns the exact bytes the
// CLI would emit for -metrics-json and -trace-json.
func metricsAndTrace(t *testing.T, cfg PartitionConfig, seed int64) (string, string) {
	t.Helper()
	tr := trace.New()
	cfg.Trace = tr
	r := PartitionFill(cfg, seed)
	if !r.OK() {
		t.Fatalf("partitions=%d: fill incomplete: %s", cfg.Partitions, r.Note)
	}
	var mbuf, tbuf bytes.Buffer
	if err := r.Metrics.WriteJSON(&mbuf); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if err := tr.WriteChromeJSON(&tbuf); err != nil {
		t.Fatalf("trace json: %v", err)
	}
	return mbuf.String(), tbuf.String()
}

// TestPartitionFillWorkerInvariance is the partitioned engine's contract
// at the experiment level: the metrics and trace JSON bytes are identical
// at Partitions 1, 2 and 4 on the 64-node fill, and the metrics JSON at
// Partitions 1 and 2 on the 1 024-node fill the ledger times. It is the
// only code that runs goroutines inside one machine, so CI also runs it
// under the race detector.
func TestPartitionFillWorkerInvariance(t *testing.T) {
	cfg := testPartitionConfig()
	cfg.Partitions = 1
	wantM, wantT := metricsAndTrace(t, cfg, 7)
	// A fault-free fill never completes a recovery, so its trace keeps every
	// packet and the comparison below is over real data.
	var snap struct{ Counters map[string]uint64 }
	if err := json.Unmarshal([]byte(wantM), &snap); err != nil {
		t.Fatal(err)
	}
	sent := lanePackets(snap.Counters)
	if traced := strings.Count(wantT, `{"name":"inject","cat":"pkt"`); sent == 0 || uint64(traced) != sent {
		t.Fatalf("%d packets traced of %d sent: a fault-free fill traces every packet", traced, sent)
	}
	for _, w := range []int{2, 4} {
		cfg.Partitions = w
		gotM, gotT := metricsAndTrace(t, cfg, 7)
		if gotM != wantM {
			t.Errorf("metrics JSON differs between -partitions 1 and %d", w)
		}
		if gotT != wantT {
			t.Errorf("trace JSON differs between -partitions 1 and %d", w)
		}
	}
	big := DefaultPartitionConfig()
	var want string
	for _, w := range []int{1, 2} {
		big.Partitions = w
		r := PartitionFill(big, 7)
		if !r.OK() {
			t.Fatalf("1024 nodes, partitions=%d: %s", w, r.Note)
		}
		var buf bytes.Buffer
		if err := r.Metrics.WriteJSON(&buf); err != nil {
			t.Fatalf("metrics json: %v", err)
		}
		if w == 1 {
			want = buf.String()
		} else if buf.String() != want {
			t.Errorf("1024 nodes: metrics JSON differs between partitions 1 and %d", w)
		}
	}
}

// TestPartitionSequentialBaseline pins the relationship between the
// sequential engine and the partitioned engine at partitions=1: same
// workload completes on both, and the partitioned run reports its region
// structure in the result.
func TestPartitionSequentialBaseline(t *testing.T) {
	cfg := testPartitionConfig()
	cfg.Partitions = 0
	seq := PartitionFill(cfg, 3)
	if !seq.OK() {
		t.Fatalf("sequential: %s", seq.Note)
	}
	if seq.Regions != 1 || seq.Barriers != 0 {
		t.Errorf("sequential run reports regions=%d barriers=%d", seq.Regions, seq.Barriers)
	}
	cfg.Partitions = 1
	par := PartitionFill(cfg, 3)
	if !par.OK() {
		t.Fatalf("partitioned: %s", par.Note)
	}
	if par.Regions != 8 {
		t.Errorf("partitioned 8x8 mesh: regions = %d, want 8", par.Regions)
	}
	if par.Merged == 0 {
		t.Error("partitioned run merged no cross-region events — remote traffic missing")
	}
}
