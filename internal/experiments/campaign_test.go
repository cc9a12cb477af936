package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// Helpers shared by the suite: each runs a real family through RunCampaign.

// validationBatch runs one Table 5.3 batch, taking the envelope (workers,
// sink) from cfg the way the tail and routing campaigns do.
func validationBatch(cfg ValidationConfig, ft fault.Type, runs int, seed int64) ([]runner.Result[*ValidationResult], runner.Stats) {
	out := RunCampaign(cfg.envelope(seed, runs), ValidationCampaign{Config: cfg, Fault: ft})
	return out.Runs, out.Stats
}

// table53Row aggregates a batch of validation runs for one fault type.
type table53Row struct {
	Fault  fault.Type
	Runs   int
	Failed int
	// Metrics is the batch aggregate: every non-crashed run's snapshot,
	// merged in run order.
	Metrics *metrics.Snapshot
}

// table53 aggregates one validation batch per fail-stop fault type.
func table53(cfg ValidationConfig, runs int, seed int64) ([]table53Row, runner.Stats) {
	var rows []table53Row
	var total runner.Stats
	env := cfg.envelope(seed, runs)
	env.Metrics = true
	for _, ft := range fault.AllTypes() {
		out := RunCampaign(env, ValidationCampaign{Config: cfg, Fault: ft})
		row := table53Row{Fault: ft, Runs: runs, Metrics: out.Metrics}
		for _, r := range out.Runs {
			if r.Err != nil || !r.Value.OK() {
				row.Failed++
			}
		}
		total.Merge(out.Stats)
		rows = append(rows, row)
	}
	return rows, total
}

// recoveryDistribution summarizes a DistributionCampaign of `seeds` runs.
func recoveryDistribution(cfg ScalingConfig, seeds int) Distribution {
	out := RunCampaign(CampaignConfig{Seed: cfg.Seed, Runs: seeds}, DistributionCampaign{Config: cfg})
	return SummarizeDistribution(cfg.Nodes, out.Runs, out.Stats)
}

// crashing makes run `at` of an experiment panic — the stand-in for the
// test-only runHook on the families that carry no ValidationConfig or
// ScalingConfig to hang one on.
type crashing[T any] struct {
	Experiment[T]
	at int
}

func (c crashing[T]) Run(env RunEnv, i int, seed int64) T {
	if i == c.at {
		panic("injected driver crash")
	}
	return c.Experiment.Run(env, i, seed)
}

// parseRunLog decodes a JSONL run log into its records, in file order.
func parseRunLog(t *testing.T, log string) []obs.RunRecord {
	t.Helper()
	var recs []obs.RunRecord
	for n, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v\n%s", n, err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// observed runs campaign with a RunLog and a batch recorder as its sink,
// finishes the log the way a driver would (its density and duplicate checks
// must pass), and returns the JSONL bytes and the announced batches.
func observed(t *testing.T, campaign func(sink obs.Sink)) (string, []obs.Batch) {
	t.Helper()
	var buf bytes.Buffer
	log := obs.NewRunLog(&buf, false)
	var batches batchRecorder
	campaign(obs.Multi(log, &batches))
	log.Finish()
	if err := log.Err(); err != nil {
		t.Fatalf("run log: %v", err)
	}
	return buf.String(), batches
}

// campaignLog runs exp observed and returns the result, the announced
// batch, the records in run-index order, and the log's bytes.
func campaignLog[T any](t *testing.T, cfg CampaignConfig, exp Experiment[T]) (CampaignResult[T], obs.Batch, []obs.RunRecord, string) {
	t.Helper()
	var out CampaignResult[T]
	log, batches := observed(t, func(sink obs.Sink) {
		cfg.Observe = sink
		out = RunCampaign(cfg, exp)
	})
	if len(batches) != 1 {
		t.Fatalf("campaign announced %d batches, want 1", len(batches))
	}
	return out, batches[0], parseRunLog(t, log), log
}

type batchRecorder []obs.Batch

func (b *batchRecorder) StartBatch(x obs.Batch) { *b = append(*b, x) }
func (b *batchRecorder) RunDone(obs.RunRecord)  {}
func (b *batchRecorder) Finish()                {}

// checkFamily holds one experiment family to the contract of the one
// campaign path. exp is the family at test scale (≥ 4 runs); crash builds
// the same experiment with run 3 panicking; want is the batch it must
// announce (Runs is filled in here).
func checkFamily[T any](t *testing.T, exp Experiment[T], crash Experiment[T], want obs.Batch) {
	const base, runs = 7, 5
	cfg := CampaignConfig{Seed: base, Runs: runs, Workers: 1}
	ref, batch, recs, log1 := campaignLog(t, cfg, exp)
	n := len(ref.Runs)
	if n < 4 {
		t.Fatalf("family ran %d runs, the contract needs ≥ 4", n)
	}
	want.Runs = n
	if batch != want {
		t.Errorf("announced batch %+v, want %+v", batch, want)
	}

	// At 8 workers every run of a warm family forks a different worker's
	// warm state than at 1; values and the run log must not move.
	t.Run("workers 1 vs 8", func(t *testing.T) {
		alt := cfg
		alt.Workers = 8
		got, _, _, log := campaignLog(t, alt, exp)
		for i := range ref.Runs {
			if !reflect.DeepEqual(ref.Runs[i].Value, got.Runs[i].Value) {
				t.Errorf("run %d: %+v != %+v", i, ref.Runs[i].Value, got.Runs[i].Value)
			}
		}
		if log != log1 {
			t.Errorf("run log differs:\n%s\nvs\n%s", log1, log)
		}
	})

	t.Run("records", func(t *testing.T) {
		if len(recs) != n {
			t.Fatalf("%d records for %d runs", len(recs), n)
		}
		for i, rec := range recs {
			if rec.Run != i {
				t.Fatalf("record %d carries run index %d", i, rec.Run)
			}
			seed := int64(base)
			if exp.Stream() >= 0 {
				seed = runner.DeriveSeed(base, exp.Stream(), i)
			}
			if rec.Seed != seed {
				t.Errorf("record %d: seed %d, want %d", i, rec.Seed, seed)
			}
			if ref.Runs[i].Err != nil {
				t.Fatalf("run %d crashed: %v", i, ref.Runs[i].Err)
			}
			rep := any(ref.Runs[i].Value).(RunReport)
			if rec.Events != rep.SimEvents() || rec.Events != ref.Runs[i].Events {
				t.Errorf("record %d: events %d, result %d, runner %d", i, rec.Events, rep.SimEvents(), ref.Runs[i].Events)
			}
			if rec.Outcome != obs.OutcomePass {
				t.Errorf("record %d: outcome %q, note %q", i, rec.Outcome, rec.Note)
			}
			if !strings.HasPrefix(rec.Fault, want.Fault) {
				t.Errorf("record %d: fault %q does not name the batch's class %q", i, rec.Fault, want.Fault)
			}
			if rec.WallNS != 0 || rec.Worker != 0 {
				t.Errorf("record %d: host fields not stripped: %+v", i, rec)
			}
		}
	})

	t.Run("panic at run 3", func(t *testing.T) {
		cfg := cfg
		cfg.Workers = 4
		got, _, crashed, _ := campaignLog(t, cfg, crash)
		if len(crashed) != n {
			t.Fatalf("%d records for %d runs (a panic must not drop records)", len(crashed), n)
		}
		if got.Stats.Failed != 1 {
			t.Errorf("stats.Failed = %d, want the one crashed run", got.Stats.Failed)
		}
		for i, rec := range crashed {
			if i != 3 {
				if rec != recs[i] {
					t.Errorf("record %d changed by a sibling's panic:\n%+v\nvs\n%+v", i, rec, recs[i])
				}
				if !reflect.DeepEqual(got.Runs[i].Value, ref.Runs[i].Value) {
					t.Errorf("run %d changed by a sibling's panic", i)
				}
				continue
			}
			if got.Runs[i].Err == nil {
				t.Errorf("run 3 did not capture its panic")
			}
			if rec.Outcome != obs.OutcomePanic || !strings.Contains(rec.Note, "injected driver crash") {
				t.Errorf("crashed run logged as %q, note %q", rec.Outcome, rec.Note)
			}
			if rec.Seed != recs[i].Seed || rec.Fault != "" || rec.ContainmentNS != 0 || rec.Events != 0 {
				t.Errorf("panic record carries the wrong identity or a run payload: %+v", rec)
			}
		}
	})
}

// bareInts is a custom experiment whose results implement nothing. It has
// no Warmup, so a run handed a warm state crashes into a panic record.
type bareInts struct{}

func (bareInts) Stream() int { return 0x900 }
func (bareInts) Points() int { return 0 }
func (bareInts) Run(env RunEnv, i int, _ int64) int {
	if env.Warm != nil {
		panic("warm state handed to an experiment without Warmup")
	}
	return i * i
}

// warmInts is a custom experiment with a Warmup: each call returns a fresh
// state, and every run reports the state it was handed.
type warmInts struct{ warmups *atomic.Int64 }

// warmState is one Warmup call's product, numbered in call order.
type warmState struct{ id int64 }

func (warmInts) Stream() int { return 0x901 }
func (warmInts) Points() int { return 0 }
func (e warmInts) Warmup(CampaignConfig) any {
	return &warmState{id: e.warmups.Add(1)}
}
func (warmInts) Run(env RunEnv, _ int, _ int64) *warmState { return env.Warm.(*warmState) }

// TestOneCampaignPath holds every experiment family to the same contract on
// the one path: values bit-identical at workers 1 vs 8, a dense
// index-ordered record stream carrying the derived seeds and the results'
// own event counts, byte-identical run logs, and a panic at run 3 isolated
// into exactly one outcome=panic record. Custom experiments see a warm
// state exactly when they implement Warmup: one per worker, shared by that
// worker's runs.
func TestOneCampaignPath(t *testing.T) {
	vcfg := fastValidationConfig()
	crashAt3 := func(i int) {
		if i == 3 {
			panic("injected driver crash")
		}
	}
	t.Run("validation", func(t *testing.T) {
		exp := ValidationCampaign{Config: vcfg, Fault: fault.LinkFailure}
		crash := exp
		crash.Config.runHook = crashAt3
		checkFamily[*ValidationResult](t, exp, crash, obs.Batch{Label: "validation", Fault: "link-failure"})
	})
	t.Run("validation on the tail stream", func(t *testing.T) {
		tcfg := TailConfig{ValidationConfig: vcfg}
		exp := tcfg.experiment(fault.FailSlow)
		if exp.Stream() != runner.StreamTail+int(fault.FailSlow) {
			t.Fatalf("tail experiment on stream %#x", exp.Stream())
		}
		tcfg.runHook = crashAt3
		checkFamily[*ValidationResult](t, exp, tcfg.experiment(fault.FailSlow), obs.Batch{Label: "tail", Fault: "fail-slow"})
	})
	t.Run("end-to-end", func(t *testing.T) {
		ecfg := DefaultEndToEndConfig()
		ecfg.MemBytes = 256 << 10
		ecfg.L2Bytes = 16 << 10
		exp := EndToEndCampaign{Config: ecfg, Fault: fault.NodeFailure}
		checkFamily[*EndToEndResult](t, exp, crashing[*EndToEndResult]{exp, 3}, obs.Batch{Label: "end-to-end", Fault: "node-failure"})
	})
	t.Run("fig 5.5", func(t *testing.T) {
		exp := Fig55Campaign{Nodes: []int{2, 4, 8, 16}, Topo: machine.TopoMesh}
		checkFamily[ScalingPoint](t, exp, crashing[ScalingPoint]{exp, 3}, obs.Batch{Label: "fig5.5"})
	})
	t.Run("fig 5.7", func(t *testing.T) {
		exp := Fig57Campaign{Nodes: []int{2, 3, 4, 5}, MemBytes: 256 << 10, L2Bytes: 16 << 10}
		checkFamily[Fig57Point](t, exp, crashing[Fig57Point]{exp, 3}, obs.Batch{Label: "fig5.7"})
	})
	t.Run("distribution", func(t *testing.T) {
		exp := DistributionCampaign{Config: DefaultScalingConfig(8)}
		crash := exp
		crash.Config.runHook = crashAt3
		checkFamily[ScalingPoint](t, exp, crash, obs.Batch{Label: "dist"})
	})
	t.Run("routing", func(t *testing.T) {
		exp := routingExperiment{cfg: vcfg, strat: "incremental", spec: RoutingScenarioSpec{Name: "multi-link", Links: 2}, scenario: 2}
		crash := exp
		crash.cfg.runHook = crashAt3
		checkFamily[*RoutingRun](t, exp, crash, obs.Batch{Label: "routing/multi-link/incremental"})
	})
	t.Run("custom bare int", func(t *testing.T) {
		out, batch, recs, _ := campaignLog[int](t, CampaignConfig{Seed: 7, Runs: 4, Workers: 2, Metrics: true}, bareInts{})
		if batch != (obs.Batch{Label: "campaign", Runs: 4}) {
			t.Errorf("announced batch %+v", batch)
		}
		if out.Metrics == nil || len(out.Metrics.Counters) != 0 {
			t.Errorf("metrics of a result without snapshots: %+v", out.Metrics)
		}
		for i, rec := range recs {
			want := obs.RunRecord{Run: i, Seed: runner.DeriveSeed(7, 0x900, i), Outcome: obs.OutcomePass}
			if rec != want {
				t.Errorf("record %d = %+v, want %+v", i, rec, want)
			}
			if out.Runs[i].Value != i*i || out.Runs[i].Events != 0 {
				t.Errorf("run %d = %+v", i, out.Runs[i])
			}
		}
	})
	t.Run("custom with Warmup", func(t *testing.T) {
		const runs, workers = 12, 3
		exp := warmInts{warmups: new(atomic.Int64)}
		out := RunCampaign[*warmState](CampaignConfig{Seed: 7, Runs: runs, Workers: workers}, exp)
		if n := exp.warmups.Load(); n < 1 || n > workers {
			t.Fatalf("Warmup ran %d times for %d workers", n, workers)
		}
		// A worker's warm state is built for it alone and serves all its
		// runs: every run holds one of the built states, and runs on one
		// worker hold the same one.
		byWorker := map[int]*warmState{}
		for i, r := range out.Runs {
			if r.Err != nil {
				t.Fatalf("run %d crashed: %v", i, r.Err)
			}
			ws := r.Value
			if ws == nil || ws.id < 1 || ws.id > exp.warmups.Load() {
				t.Fatalf("run %d saw warm state %+v", i, ws)
			}
			if prev, ok := byWorker[r.Worker]; ok && prev != ws {
				t.Errorf("run %d on worker %d saw state %d, an earlier run there saw %d", i, r.Worker, ws.id, prev.id)
			}
			byWorker[r.Worker] = ws
		}
		seen := map[*warmState]int{}
		for w, ws := range byWorker {
			if other, dup := seen[ws]; dup {
				t.Errorf("workers %d and %d share warm state %d", other, w, ws.id)
			}
			seen[ws] = w
		}
	})
}
