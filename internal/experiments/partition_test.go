package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
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

// TestPartitionFillWorkerInvariance is the PR's headline acceptance check
// at the experiment level: -metrics-json and -trace-json bytes are
// identical at -partitions 1 and -partitions 4 (and 2).
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
}

// TestPartitionBoundaryFaultWorkerInvariance exercises the fault path that
// coincides with a partition boundary: FailLink on an inter-region link,
// recovery across the cut, full memory verification — byte-identical
// metrics at any worker count.
func TestPartitionBoundaryFaultWorkerInvariance(t *testing.T) {
	cfg := testPartitionConfig()
	var want string
	for i, w := range []int{1, 4} {
		cfg.Partitions = w
		r := PartitionBoundaryFault(cfg, 11)
		if !r.OK() {
			t.Fatalf("partitions=%d: %s (recovered=%v verify=%v)", w, r.Note, r.Recovered, r.Verify)
		}
		var buf bytes.Buffer
		if err := r.Metrics.WriteJSON(&buf); err != nil {
			t.Fatalf("metrics json: %v", err)
		}
		if i == 0 {
			want = buf.String()
		} else if buf.String() != want {
			t.Errorf("metrics JSON differs between -partitions 1 and %d", w)
		}
	}
}

// TestPartitionNodeFaultOnBoundaryRow kills a node whose router sits on a
// region boundary (the last row of stripe 0 in the 8×8 mesh), mid-fill,
// with parallel windows active before injection. Recovery and verification
// must succeed and stay byte-identical across worker counts.
func TestPartitionNodeFaultOnBoundaryRow(t *testing.T) {
	run := func(workers int) (string, *ValidationResult) {
		mc := machine.DefaultConfig(64)
		mc.Seed = 23
		mc.MemBytes = 64 << 10
		mc.L2Bytes = 16 << 10
		mc.Partitions = workers
		mc.ParallelWindows = true
		m := machine.New(mc)

		// Node 7 is in stripe 0 (rows 0 of the 8×8 mesh with 8 stripes:
		// every row is its own region), so its vertical neighbor at node
		// 15 is across a boundary — the fault sits exactly on a region
		// edge.
		victim := 7
		if m.Regions.Of(victim) == m.Regions.Of(victim+8) {
			t.Fatalf("test premise broken: nodes 7 and 15 share a region")
		}
		f := fault.Fault{Type: fault.NodeFailure, Node: victim}

		pf := workload.NewPartitionFill(m)
		pf.OpsPerNode = 32
		pf.Start()
		for pf.Remaining() > pf.Total()/2 && m.Now() < 2*sim.Second {
			m.Advance(m.Now() + sim.Millisecond)
		}
		m.Inject(f)
		m.Nodes[0].CPU.Submit(workload.TouchOp(m, victim))
		res := &ValidationResult{Fault: f}
		res.Recovered = m.RunUntilRecovered(2 * sim.Second)
		if res.Recovered {
			res.Verify = m.VerifyMemory(0, 1)
		}
		res.Metrics = m.MetricsSnapshot()
		var buf bytes.Buffer
		if err := res.Metrics.WriteJSON(&buf); err != nil {
			t.Fatalf("metrics json: %v", err)
		}
		return buf.String(), res
	}
	want, res := run(1)
	if !res.Recovered || res.Verify == nil || !res.Verify.OK() {
		t.Fatalf("workers=1: recovered=%v verify=%v", res.Recovered, res.Verify)
	}
	got, res4 := run(4)
	if !res4.Recovered || res4.Verify == nil || !res4.Verify.OK() {
		t.Fatalf("workers=4: recovered=%v verify=%v", res4.Recovered, res4.Verify)
	}
	if got != want {
		t.Errorf("metrics JSON differs between 1 and 4 workers")
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
