package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/hive"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
)

// Table 5.4's outcomes are pinned as a golden file: the stripped run records
// (with each run's Hive verdict and recovery times) and the merged metric
// snapshot of eight Hive parallel-make runs per fault type, plus node
// failure with the legacy OS bugs reenabled. Any drift in the make's event
// order, the OS's recovery or the run verdicts shows as a diff. Regenerate
// intentional changes with `go test ./internal/experiments -run
// EndToEndCampaignGolden -update`.
func TestEndToEndCampaignGolden(t *testing.T) {
	type batch struct {
		ft     fault.Type
		legacy bool
	}
	batches := []batch{
		{fault.NodeFailure, false}, {fault.RouterFailure, false},
		{fault.LinkFailure, false}, {fault.InfiniteLoop, false},
		{fault.NodeFailure, true},
	}
	type run struct {
		obs.RunRecord
		Latent  bool          `json:"latent"`
		HW      sim.Time      `json:"hw_ns"`
		OS      sim.Time      `json:"os_ns"`
		Verdict *hive.Outcome `json:"verdict"`
	}
	var got struct {
		Runs    []run             `json:"runs"`
		Metrics *metrics.Snapshot `json:"metrics"`
	}
	var snaps []*metrics.Snapshot
	for _, b := range batches {
		cfg := DefaultEndToEndConfig()
		cfg.LegacyIncoherentBug = b.legacy
		exp := EndToEndCampaign{Config: cfg, Fault: b.ft}
		out := RunCampaign(CampaignConfig{Seed: 1, Runs: 8, Workers: 4, Metrics: true}, exp)
		for i, r := range out.Runs {
			rec := obs.StripHost(recordOf(i, runner.DeriveSeed(1, exp.Stream(), i), r))
			got.Runs = append(got.Runs, run{rec, r.Value.Latent, r.Value.HW, r.Value.OS, r.Value.Outcome})
		}
		snaps = append(snaps, out.Metrics)
	}
	got.Metrics = runner.MergeMetrics(snaps)
	buf, err := json.MarshalIndent(&got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	golden := filepath.Join("testdata", "endtoend_campaign_seed1.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("Table 5.4 campaign differs from golden file %s (regenerate intentional changes with -update):\n--- got\n%s\n--- want\n%s",
			golden, buf, want)
	}
}
