package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/metrics"
	"flashfc/internal/runner"
)

var update = flag.Bool("update", false, "rewrite golden files")

// collectSnaps extracts the metric snapshots of every non-crashed run.
func collectSnaps(results []runner.Result[*ValidationResult]) []*metrics.Snapshot {
	var snaps []*metrics.Snapshot
	for _, r := range results {
		if r.Err == nil {
			snaps = append(snaps, r.Value.Metrics)
		}
	}
	return snaps
}

// The merged campaign snapshot must serialize to the same bytes no matter
// how many workers measured the runs — the acceptance criterion for the
// whole metrics layer.
func TestMergedMetricsJSONBitIdenticalAcrossWorkers(t *testing.T) {
	jsonFor := func(workers int) []byte {
		cfg := fastValidationConfig()
		cfg.Workers = workers
		results, _ := validationBatch(cfg, fault.NodeFailure, 6, 1)
		var buf bytes.Buffer
		if err := runner.MergeMetrics(collectSnaps(results)).WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	seq := jsonFor(1)
	par := jsonFor(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("merged metrics JSON differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", seq, par)
	}
}

// Every simulation layer must report into the per-machine registry: at
// least one nonzero counter from the sim engine, the interconnect, the
// MAGIC controllers, the recovery agents, and the machine harness.
func TestMetricsCoverEveryLayer(t *testing.T) {
	r := Validation(fastValidationConfig(), fault.NodeFailure, 1)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	if r.Metrics == nil {
		t.Fatal("ValidationResult.Metrics is nil")
	}
	for _, prefix := range []string{"sim.", "interconnect.", "magic.", "core.", "machine."} {
		found := false
		for name, v := range r.Metrics.Counters {
			if strings.HasPrefix(name, prefix) && v > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no nonzero counter with prefix %q in snapshot", prefix)
		}
	}
}

// Batch drivers must carry their aggregates: every Table 5.3 row merges
// its runs' snapshots, and every scaling point carries its own.
func TestBatchDriversCarryMetrics(t *testing.T) {
	cfg := fastValidationConfig()
	rows, _ := table53(cfg, 2, 1)
	for _, row := range rows {
		if row.Metrics == nil {
			t.Fatalf("%v row has nil Metrics", row.Fault)
		}
		if got := row.Metrics.Counters["machine.faults_injected"]; got != uint64(row.Runs) {
			t.Errorf("%v row: machine.faults_injected = %d, want %d", row.Fault, got, row.Runs)
		}
	}

	p := MeasureRecovery(DefaultScalingConfig(2))
	if !p.OK {
		t.Fatal("scaling run failed")
	}
	if p.Metrics == nil || p.Metrics.Counters["machine.recoveries"] != 1 {
		t.Errorf("ScalingPoint.Metrics missing or machine.recoveries != 1: %+v", p.Metrics)
	}

	d := recoveryDistribution(DefaultScalingConfig(2), 3)
	if d.Metrics == nil || d.Metrics.Counters["machine.recoveries"] != 3 {
		t.Errorf("Distribution.Metrics missing or machine.recoveries != 3")
	}
}

// The snapshot of a fixed small run is pinned as a golden file: any
// unintended change to event ordering, seeding, or instrument placement
// shows up as a diff. Regenerate intentional changes with `go test
// ./internal/experiments -run Golden -update`.
func TestMetricsGoldenSnapshot(t *testing.T) {
	r := Validation(fastValidationConfig(), fault.NodeFailure, 7)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	var buf bytes.Buffer
	if err := r.Metrics.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "metrics_node_failure_seed7.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot differs from golden file %s (regenerate intentional changes with -update):\n--- got\n%s\n--- want\n%s",
			golden, buf.Bytes(), want)
	}
}
