package experiments

import (
	"reflect"
	"testing"

	"flashfc/internal/obs"
	"flashfc/internal/routing"
	"flashfc/internal/runner"
)

// fastRoutingConfig shrinks the campaign enough for the unit suite.
func fastRoutingConfig() RoutingConfig {
	cfg := DefaultRoutingConfig()
	cfg.FillLines = 64
	cfg.Runs = 4
	return cfg
}

func TestRoutingCampaignHeadToHead(t *testing.T) {
	cfg := fastRoutingConfig()
	res := RoutingCampaign(cfg, 7)
	if len(res.Scenarios) != len(DefaultRoutingScenarios()) {
		t.Fatalf("got %d scenarios", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if len(sc.Cells) != len(routing.Names()) {
			t.Fatalf("%s: got %d cells, want one per strategy", sc.Spec.Name, len(sc.Cells))
		}
		for _, c := range sc.Cells {
			if c.Failed != 0 {
				t.Errorf("%s/%s: %d of %d runs failed", sc.Spec.Name, c.Strategy, c.Failed, c.Runs)
			}
			if c.Deadlocks != 0 {
				t.Errorf("%s/%s: %d runs left a dependency cycle installed", sc.Spec.Name, c.Strategy, c.Deadlocks)
			}
			if c.RecoveryP50 <= 0 {
				t.Errorf("%s/%s: no recovery time measured", sc.Spec.Name, c.Strategy)
			}
			if c.ThroughputP50 <= 0 {
				t.Errorf("%s/%s: no post-recovery throughput measured", sc.Spec.Name, c.Strategy)
			}
		}
	}
}

// TestRoutingRunsArePaired verifies the head-to-head contract: at the same
// run seed, every strategy faces the identical fault set.
func TestRoutingRunsArePaired(t *testing.T) {
	cfg := fastRoutingConfig()
	ws := WarmupValidation(cfg.ValidationConfig, runner.DeriveSeed(3, runner.StreamWarmup, 0))
	spec := RoutingScenarioSpec{Name: "multi-link", Links: 2}
	seed := runner.DeriveSeed(3, runner.StreamRouting, 1)
	var faults [][]string
	for _, name := range routing.Names() {
		r := RoutingFromWarm(ws, name, spec, seed)
		var fs []string
		for _, f := range r.Faults {
			fs = append(fs, f.String())
		}
		faults = append(faults, fs)
	}
	for i := 1; i < len(faults); i++ {
		if !reflect.DeepEqual(faults[0], faults[i]) {
			t.Fatalf("strategies %s and %s drew different faults: %v vs %v",
				routing.Names()[0], routing.Names()[i], faults[0], faults[i])
		}
	}
}

// TestRoutingCampaignDeterministic pins the bit-identical contract across
// worker counts.
func TestRoutingCampaignDeterministic(t *testing.T) {
	cfg := fastRoutingConfig()
	cfg.Runs = 2
	cfg.Scenarios = []RoutingScenarioSpec{{Name: "single-link", Links: 1}}
	cfg.Workers = 1
	ref := RoutingCampaign(cfg, 5)
	cfg.Workers = 3
	if got := RoutingCampaign(cfg, 5); !reflect.DeepEqual(ref.Scenarios, got.Scenarios) {
		t.Fatalf("workers=3 changed the campaign result:\nref %+v\ngot %+v", ref.Scenarios, got.Scenarios)
	}
}

// TestRoutingStrategyDiffers sanity-checks that the alternatives are not the
// paper strategy in disguise: on a single dead link, incremental must charge
// fewer reprogrammed entries, which surfaces as a shorter P3.
func TestRoutingStrategyDiffers(t *testing.T) {
	cfg := fastRoutingConfig()
	ws := WarmupValidation(cfg.ValidationConfig, runner.DeriveSeed(9, runner.StreamWarmup, 0))
	spec := RoutingScenarioSpec{Name: "single-link", Links: 1}
	seed := runner.DeriveSeed(9, runner.StreamRouting, 0)
	paper := RoutingFromWarm(ws, "paper", spec, seed)
	incr := RoutingFromWarm(ws, "incremental", spec, seed)
	if !paper.Recovered || !incr.Recovered {
		t.Fatalf("runs did not recover: paper=%v incremental=%v", paper.Recovered, incr.Recovered)
	}
	if incr.P3 >= paper.P3 {
		t.Errorf("incremental P3 %v not below paper's %v", incr.P3, paper.P3)
	}
}

// TestRoutingRunLogPairedSeeds pins the head-to-head campaign's record
// stream: one batch per (scenario, strategy) named routing/<scenario>/
// <strategy>, byte-identical at workers 1 vs 8, and run i of every strategy
// of a scenario carrying the same derived seed and the same faults — the
// pairing contract, visible in the artefact.
func TestRoutingRunLogPairedSeeds(t *testing.T) {
	cfg := fastRoutingConfig()
	cfg.Runs = 3
	cfg.Scenarios = DefaultRoutingScenarios()[:2]
	type batch struct {
		label string
		recs  []obs.RunRecord
	}
	runLog := func(workers int) (string, []batch) {
		log, batches := observed(t, func(sink obs.Sink) {
			cfg.Workers = workers
			cfg.Observe = sink
			RoutingCampaign(cfg, 5)
		})
		recs := parseRunLog(t, log)
		var out []batch
		for _, b := range batches {
			out = append(out, batch{label: b.Label, recs: recs[:b.Runs]})
			recs = recs[b.Runs:]
		}
		if len(recs) != 0 {
			t.Fatalf("%d records beyond the announced batches", len(recs))
		}
		return log, out
	}
	want, batches := runLog(1)
	if got, _ := runLog(8); got != want {
		t.Errorf("routing run log differs between 1 and 8 workers:\n1: %s\n8: %s", want, got)
	}
	strategies := routing.Names()
	if len(batches) != len(cfg.Scenarios)*len(strategies) {
		t.Fatalf("%d batches, want one per (scenario, strategy)", len(batches))
	}
	for si, spec := range cfg.Scenarios {
		first := batches[si*len(strategies)]
		for k, strat := range strategies {
			b := batches[si*len(strategies)+k]
			if b.label != "routing/"+spec.Name+"/"+strat {
				t.Errorf("batch %d labelled %q", si*len(strategies)+k, b.label)
			}
			for i, rec := range b.recs {
				if rec.Run != i || rec.Seed != runner.DeriveSeed(5, runner.StreamRouting+si, i) {
					t.Errorf("%s run %d: index %d seed %d", b.label, i, rec.Run, rec.Seed)
				}
				if rec.Seed != first.recs[i].Seed || rec.Fault != first.recs[i].Fault {
					t.Errorf("%s run %d is not paired with %s: seed %d fault %q vs seed %d fault %q",
						b.label, i, first.label, rec.Seed, rec.Fault, first.recs[i].Seed, first.recs[i].Fault)
				}
				if rec.Outcome != obs.OutcomePass || rec.ContainmentNS <= 0 || rec.Events == 0 {
					t.Errorf("%s run %d: %+v", b.label, i, rec)
				}
			}
		}
	}
}

// TestAdaptiveRecoversFasterThanPaper is the one host-independent
// performance bar of the routing strategies: on the single-link scenario
// the adaptive strategy's median recovery beats the paper's. The times are
// simulated, hence exact on any host: 3.804 ms vs 4.065 ms (0.936) when
// this test was written.
func TestAdaptiveRecoversFasterThanPaper(t *testing.T) {
	cfg := DefaultRoutingConfig()
	cfg.BurstLines = 16
	cfg.Stride = 32
	cfg.Runs = 8
	cfg.Strategies = []string{"paper", "adaptive"}
	cfg.Scenarios = []RoutingScenarioSpec{{Name: "single-link", Links: 1}}
	cells := RoutingCampaign(cfg, 11).Scenarios[0].Cells
	for _, c := range cells {
		if c.Failed != 0 || c.Deadlocks != 0 {
			t.Errorf("%s: failed=%d deadlocks=%d", c.Strategy, c.Failed, c.Deadlocks)
		}
	}
	paper, adaptive := cells[0].RecoveryP50, cells[1].RecoveryP50
	if adaptive >= paper {
		t.Errorf("adaptive recovery p50 %v not below paper's %v", adaptive, paper)
	}
	t.Logf("recovery p50: adaptive %v / paper %v = %.3f", adaptive, paper, float64(adaptive)/float64(paper))
}
