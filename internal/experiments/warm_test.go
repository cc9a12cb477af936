package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/runner"
	"flashfc/internal/trace"
)

// A fork of a shared warm snapshot must equal a run forked from a freshly
// rebuilt warm state — the fork-vs-fresh determinism contract, one level
// below the batch drivers.
func TestWarmForkVsFreshBitIdentical(t *testing.T) {
	cfg := fastValidationConfig()
	warmSeed := runner.DeriveSeed(7, runner.StreamWarmup, 0)
	ws := WarmupValidation(cfg, warmSeed)
	for _, ft := range fault.AllTypes() {
		runSeed := runner.DeriveSeed(7, runner.StreamValidation+int(ft), 3)
		shared := ValidationFromWarm(ws, ft, runSeed, nil)
		fresh := ValidationFromWarm(WarmupValidation(cfg, warmSeed), ft, runSeed, nil)
		if !shared.OK() {
			t.Errorf("%v: warm run failed: %s", ft, shared.Note)
		}
		if !reflect.DeepEqual(shared, fresh) {
			t.Errorf("%v: shared-snapshot fork != fresh warm-up fork\nshared: %+v\nfresh:  %+v", ft, shared, fresh)
		}
	}
}

// Sibling forks of one snapshot must not contaminate each other: a run
// repeated after other runs used the same snapshot is bit-identical to its
// first execution.
func TestWarmSnapshotNoCrossForkContamination(t *testing.T) {
	cfg := fastValidationConfig()
	ws := WarmupValidation(cfg, runner.DeriveSeed(7, runner.StreamWarmup, 0))
	first := ValidationFromWarm(ws, fault.NodeFailure, 1234, nil)
	for seed := int64(10); seed < 14; seed++ {
		ValidationFromWarm(ws, fault.Type(seed%5), seed, nil)
	}
	again := ValidationFromWarm(ws, fault.NodeFailure, 1234, nil)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("snapshot mutated by sibling forks:\nfirst: %+v\nagain: %+v", first, again)
	}
}

// A batch's runs fork their worker's warm snapshot; at 8 workers run i
// forks a different worker's copy of the warm-up than at 1, so the per-run
// results must match bit for bit. (TestWarmForkVsFreshBitIdentical and
// TestWarmSnapshotNoCrossForkContamination hold shared-vs-fresh identity
// one level below.)
func TestWarmBatchBitIdenticalAcrossWorkers(t *testing.T) {
	var base []runner.Result[*ValidationResult]
	for _, workers := range []int{1, 8} {
		cfg := fastValidationConfig()
		cfg.Workers = workers
		results, _ := validationBatch(cfg, fault.RouterFailure, 6, 3)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d run %d crashed: %v", workers, i, r.Err)
			}
			if !r.Value.OK() {
				t.Errorf("workers=%d run %d failed: %s", workers, i, r.Value.Note)
			}
			if base != nil && !reflect.DeepEqual(r.Value, base[i].Value) {
				t.Errorf("workers=8 run %d diverges from workers=1:\n%+v\nvs\n%+v", i, r.Value, base[i].Value)
			}
		}
		base = results
	}
}

// The merged metrics of a fixed warm batch are pinned as a golden file:
// any drift in the warm-up, the snapshot/fork cycle, seeding, or merge
// order shows as a diff. Regenerate intentional changes with
// `go test ./internal/experiments -run WarmMetricsGolden -update`.
func TestWarmMetricsGoldenSnapshot(t *testing.T) {
	cfg := fastValidationConfig()
	cfg.Workers = 4
	results, _ := validationBatch(cfg, fault.NodeFailure, 4, 7)
	for i, r := range results {
		if r.Err != nil || !r.Value.OK() {
			t.Fatalf("run %d failed: err=%v note=%s", i, r.Err, r.Value.Note)
		}
	}
	var buf bytes.Buffer
	if err := runner.MergeMetrics(collectSnaps(results)).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "metrics_warm_batch_seed7.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("warm batch metrics differ from golden file %s (regenerate intentional changes with -update):\n--- got\n%s\n--- want\n%s",
			golden, buf.Bytes(), want)
	}
}

// A traced run built by hand from the warm-start pieces — WarmupValidation
// at the warm-up stream's seed, then ValidationFromWarm at run 0's seed —
// must export the same spans as Validation, which is run 0 of the one-run
// campaign: both are checked against the one pinned golden file of
// TestTraceGoldenSpanExport (regenerate intentional changes there).
func TestWarmTraceGoldenSpanExport(t *testing.T) {
	jsonFor := func() []byte {
		tr := trace.New()
		ws := WarmupValidation(traceValidationConfig(), runner.DeriveSeed(7, runner.StreamWarmup, 0))
		r := ValidationFromWarm(ws, fault.NodeFailure,
			runner.DeriveSeed(7, runner.StreamValidation+int(fault.NodeFailure), 0), tr)
		if !r.OK() {
			t.Fatalf("run failed: %s", r.Note)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeJSON(&buf); err != nil {
			t.Fatalf("WriteChromeJSON: %v", err)
		}
		return buf.Bytes()
	}
	got := jsonFor()
	if again := jsonFor(); !bytes.Equal(got, again) {
		t.Fatal("traced warm run is not reproducible")
	}
	golden := filepath.Join("testdata", "trace_node_failure_seed7.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -run TraceGolden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("warm trace differs from golden file %s", golden)
	}
}
