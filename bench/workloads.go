package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"flashfc"
	"flashfc/internal/experiments"
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// inputs is everything a workload derives its configs and seeds from. The
// simulator only ever sees the derived values.
type inputs struct {
	seed int64
	// smoke shrinks run counts and machine sizes so all six workloads and
	// the kernels finish within the test suite's budget.
	smoke bool
	// workers is the campaign worker count; 1 everywhere except the
	// parallel-efficiency measurement.
	workers int
}

// runFacts is the deterministic outcome of one simulated run, in the form
// both the façade's result and the replica script can report it. The
// replica-fidelity gate compares these field by field and the
// simulated-statistics digest hashes them.
type runFacts struct {
	Seed   int64  `json:"seed"`
	Fault  string `json:"fault"`
	Events uint64 `json:"events"`
	// SimNS is the workload's simulated interval (see workload.simWhat).
	SimNS int64 `json:"sim_ns"`
	OK    bool  `json:"ok"`
	// Counts are the verify/outcome counts of the workload, in the order of
	// workload.counts.
	Counts []int64 `json:"counts"`
}

// repResult is one rep: a fixed, seeded unit of work.
type repResult struct {
	Runs []runFacts
	// Metrics is every run's metric snapshot merged in run order; nil when
	// the façade entry point exposes none (RunTailCampaign).
	Metrics *metrics.Snapshot
	// err is a failure of the rep as a whole; it counts as one failed run.
	err string

	// The rest is filled by replica scripts only.

	// loopEvents counts events fired inside the event-loop spans
	// (run_to_recovered, verify, hive.make, workload.fill), which for a
	// forked machine excludes the warm-up's events.
	loopEvents uint64
	// verifyLines and incoherentLines total the sweeps' LinesChecked and
	// Incoherent.
	verifyLines, incoherentLines int64
	// resident is the state live_heap_mb is measured over: the warm
	// snapshots and every finished machine of the rep, as a campaign that
	// kept its machines would hold them. (One machine alone makes the
	// number depend on which fault the last run drew.)
	resident []any
}

func (r *repResult) failed() int {
	n := 0
	if r.err != "" {
		n++
	}
	for _, f := range r.Runs {
		if !f.OK {
			n++
		}
	}
	return n
}

// workload is one named set of inputs. Names are permanent: later issues
// cite them.
type workload struct {
	name string
	why  string
	// simWhat names the simulated interval sim_ms_p50 is the median of.
	simWhat string
	// counts names runFacts.Counts.
	counts []string
	// reference is printed beside sim_ms_p50.
	reference string
	// facadeMetrics says whether the façade exposes the merged metric
	// snapshot; without it the digest and the gate cover the run facts only.
	facadeMetrics bool
	// campaign marks the workload runner.parallel_efficiency is measured on:
	// a campaign of many runs, which inputs.workers can spread over CPUs.
	campaign bool
	facade   func(in inputs) repResult
	replica  func(in inputs, t *tracer) repResult
}

var workloads = []workload{
	{
		name:          "table53",
		why:           "what `tables -table 5.3` runs at CLI defaults: Stride 1, so the whole-memory read sweep on forked COW state dominates",
		simWhat:       "PhaseTimes.Total",
		counts:        validationCounts,
		reference:     "paper Table 5.3: 0 failed of 1000",
		facadeMetrics: true,
		facade:        table53Facade,
		replica:       table53Replica,
	},
	{
		name:      "tail-sparse",
		why:       "the tail sweep's per-run shape with verify thinned to Stride 32, so fork, burst, detection timeouts and recovery show",
		simWhat:   "PhaseTimes.Total",
		counts:    []string{"affected_nodes"},
		reference: "unvalidated",
		campaign:  true,
		facade:    tailFacade,
		replica:   tailReplica,
	},
	{
		name:          "hive54",
		why:           "Table 5.4: only user of hive, proc retirement and make RPC; a cold machine.New every short run shows harness overhead",
		simWhat:       "EndToEndResult.HW",
		counts:        endToEndCounts,
		reference:     "unvalidated",
		facadeMetrics: true,
		facade:        hiveFacade,
		replica:       hiveReplica,
	},
	{
		name:          "fill1024",
		why:           "fault-free 32x32 mesh on the sequential engine: long routes, biggest wheel and heap, write/install side of coherence",
		simWhat:       "completion Now",
		counts:        fillCounts,
		reference:     "unvalidated",
		facadeMetrics: true,
		facade:        func(in inputs) repResult { return fillFacade(in, 0) },
		replica:       func(in inputs, t *tracer) repResult { return fillReplica(in, t, 0) },
	},
	{
		name:          "fill1024-p2",
		why:           "the same fill at Partitions 2, for the keep-or-delete decision on the partitioned engine",
		simWhat:       "completion Now",
		counts:        fillCounts,
		reference:     "unvalidated",
		facadeMetrics: true,
		facade:        func(in inputs) repResult { return fillFacade(in, 2) },
		replica:       func(in inputs, t *tracer) repResult { return fillReplica(in, t, 2) },
	},
	{
		name:          "recovery128",
		why:           "Fig 5.5's largest point on mesh and hypercube: long gossip timers and a 128-router table repair, light fill, no verify",
		simWhat:       "PhaseTimes.Total",
		counts:        recoveryCounts,
		reference:     "paper Fig 5.5: about 200 ms on the 128-node mesh; the mesh run here takes about 91 ms (EXPERIMENTS.md), ratio 0.45; the other run is the hypercube",
		facadeMetrics: true,
		facade:        recoveryFacade,
		replica:       recoveryReplica,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- façade reps: the public entry points, tracing off ----------------------

var validationCounts = []string{"recovered", "affected_nodes", "lines_checked", "correct",
	"incoherent", "inaccessible_ok", "wrong_data", "over_marked", "missing_bus_error", "pending"}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func validationFacts(seed int64, r *experiments.ValidationResult, err error) runFacts {
	if err != nil || r == nil {
		return runFacts{Seed: seed, Fault: fmt.Sprint("panic: ", err)}
	}
	f := runFacts{Seed: seed, Fault: r.Fault.String(), Events: r.Events,
		SimNS: int64(r.Phases.Total), OK: r.OK(),
		Counts: []int64{b2i(r.Recovered), int64(r.AffectedNodes), 0, 0, 0, 0, 0, 0, 0, 0}}
	if v := r.Verify; v != nil {
		copy(f.Counts[2:], []int64{int64(v.LinesChecked), int64(v.CorrectData), int64(v.Incoherent),
			int64(v.InaccessibleOK), int64(len(v.WrongData)), int64(len(v.OverMarked)),
			int64(len(v.MissingBusErr)), int64(v.Pending)})
	}
	return f
}

func table53Config(in inputs) (experiments.ValidationConfig, int) {
	if in.smoke {
		return flashfc.DefaultValidationConfig(), 1
	}
	return flashfc.DefaultValidationConfig(), 4
}

func table53Facade(in inputs) repResult {
	cfg, runs := table53Config(in)
	var res repResult
	var snaps []*metrics.Snapshot
	for _, ft := range fault.AllTypes() {
		out := flashfc.RunCampaign(
			flashfc.CampaignConfig{Seed: in.seed, Runs: runs, Workers: in.workers, Metrics: true},
			flashfc.ValidationCampaign{Config: cfg, Fault: ft})
		for i, r := range out.Runs {
			seed := runner.DeriveSeed(in.seed, runner.StreamValidation+int(ft), i)
			res.Runs = append(res.Runs, validationFacts(seed, r.Value, r.Err))
		}
		snaps = append(snaps, out.Metrics)
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

func tailConfig(in inputs) experiments.TailConfig {
	cfg := flashfc.DefaultTailConfig()
	cfg.Nodes = 16
	cfg.BurstLines = 16
	cfg.Stride = 32
	cfg.Runs = 32
	if in.smoke {
		cfg.Runs = 3
	}
	cfg.Workers = in.workers
	return cfg
}

// factSink turns the per-run records RunTailCampaign streams to its
// observability sink into run facts; the campaign's return value carries
// only percentiles.
type factSink struct {
	batch int // index of the current batch's run 0
	facts []runFacts
}

func (s *factSink) StartBatch(b obs.Batch) {
	s.batch = len(s.facts)
	s.facts = append(s.facts, make([]runFacts, b.Runs)...)
}

func (s *factSink) RunDone(r obs.RunRecord) { s.facts[s.batch+r.Run] = recordFacts(r) }

func recordFacts(r obs.RunRecord) runFacts {
	return runFacts{Seed: r.Seed, Fault: r.Fault, Events: r.Events,
		SimNS: r.ContainmentNS, OK: r.OK(), Counts: []int64{int64(r.AffectedNodes)}}
}

func (s *factSink) Finish() {}

func tailFacade(in inputs) repResult {
	cfg := tailConfig(in)
	sink := &factSink{}
	cfg.Observe = sink
	out := flashfc.RunTailCampaign(cfg, in.seed)
	res := repResult{Runs: sink.facts}
	// The campaign's own verdict must agree with the streamed records.
	failed := 0
	for _, sc := range out.Scenarios {
		failed += sc.Failed
	}
	if failed != res.failed() {
		res.err = fmt.Sprintf("tail campaign counts %d failed runs, its records %d", failed, res.failed())
	}
	return res
}

var endToEndCounts = []string{"recovered", "latent", "os_ns", "completed", "excused", "failures", "server_died"}

func endToEndFacts(seed int64, r *experiments.EndToEndResult, err error) runFacts {
	if err != nil || r == nil {
		return runFacts{Seed: seed, Fault: fmt.Sprint("panic: ", err)}
	}
	f := runFacts{Seed: seed, Fault: r.Fault.String(), Events: r.Events, SimNS: int64(r.HW), OK: r.OK(),
		Counts: []int64{b2i(r.Recovered), b2i(r.Latent), int64(r.OS), 0, 0, 0, 0}}
	if o := r.Outcome; o != nil {
		copy(f.Counts[3:], []int64{int64(o.Completed), int64(o.Excused), int64(len(o.Failures)), b2i(o.ServerDied)})
	}
	return f
}

// hiveFaults are Table 5.4's four fault types.
var hiveFaults = []fault.Type{fault.NodeFailure, fault.RouterFailure, fault.LinkFailure, fault.InfiniteLoop}

func hiveConfig(in inputs) (experiments.EndToEndConfig, int) {
	if in.smoke {
		return flashfc.DefaultEndToEndConfig(), 4
	}
	return flashfc.DefaultEndToEndConfig(), 50
}

func hiveFacade(in inputs) repResult {
	cfg, runs := hiveConfig(in)
	var res repResult
	var snaps []*metrics.Snapshot
	for _, ft := range hiveFaults {
		out := flashfc.RunCampaign(
			flashfc.CampaignConfig{Seed: in.seed, Runs: runs, Workers: in.workers, Metrics: true},
			flashfc.EndToEndCampaign{Config: cfg, Fault: ft})
		for i, r := range out.Runs {
			seed := runner.DeriveSeed(in.seed, runner.StreamEndToEnd+int(ft), i)
			res.Runs = append(res.Runs, endToEndFacts(seed, r.Value, r.Err))
		}
		snaps = append(snaps, out.Metrics)
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

var fillCounts = []string{"completed", "total", "regions", "barriers", "merged"}

func fillFacts(seed int64, r *experiments.PartitionResult) runFacts {
	return runFacts{Seed: seed, Events: r.Events, SimNS: int64(r.Now), OK: r.OK(),
		Counts: []int64{r.Completed, r.Total, int64(r.Regions), int64(r.Barriers), int64(r.Merged)}}
}

// fillConfig is the 1024-node fill at the given Partitions; its two runs use
// seeds s and s+1.
func fillConfig(in inputs, partitions int) (experiments.PartitionConfig, []int64) {
	cfg := flashfc.DefaultPartitionConfig()
	cfg.Partitions = partitions
	if in.smoke {
		cfg.Nodes = 256
		return cfg, []int64{in.seed}
	}
	return cfg, []int64{in.seed, in.seed + 1}
}

func fillFacade(in inputs, partitions int) repResult {
	cfg, seeds := fillConfig(in, partitions)
	var res repResult
	var snaps []*metrics.Snapshot
	for _, s := range seeds {
		r := flashfc.RunPartitionFill(cfg, s)
		res.Runs = append(res.Runs, fillFacts(s, r))
		snaps = append(snaps, r.Metrics)
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

var recoveryCounts = []string{"p1_ns", "p12_ns", "p123_ns", "max_rounds", "restarts", "participants"}

func recoveryFacts(cfg experiments.ScalingConfig, p experiments.ScalingPoint) runFacts {
	topo := "mesh"
	if cfg.Topo == machine.TopoHypercube {
		topo = "hypercube"
	}
	return runFacts{Seed: cfg.Seed, Fault: fmt.Sprintf("node-failure on %d-node %s", cfg.Nodes, topo),
		Events: p.Events, SimNS: int64(p.Phases.Total), OK: p.OK,
		Counts: []int64{int64(p.Phases.P1), int64(p.Phases.P12), int64(p.Phases.P123),
			int64(p.Phases.MaxRounds), int64(p.Phases.Restarts), int64(p.Phases.Participants)}}
}

// recoveryConfigs is Fig 5.5's largest point on both topologies.
func recoveryConfigs(in inputs) []experiments.ScalingConfig {
	nodes := 128
	if in.smoke {
		nodes = 32
	}
	var cfgs []experiments.ScalingConfig
	for _, topo := range []machine.TopoKind{machine.TopoMesh, machine.TopoHypercube} {
		cfg := flashfc.DefaultScalingConfig(nodes)
		cfg.Topo = topo
		cfg.Seed = in.seed
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func recoveryFacade(in inputs) repResult {
	var res repResult
	var snaps []*metrics.Snapshot
	for _, cfg := range recoveryConfigs(in) {
		p := flashfc.MeasureRecovery(cfg)
		res.Runs = append(res.Runs, recoveryFacts(cfg, p))
		snaps = append(snaps, p.Metrics)
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

// --- digest and fidelity gate ------------------------------------------------

// digest is the simulated-statistics digest of one rep: SHA-256 over every
// run's deterministic fields plus, where the façade exposes it, the merged
// metric snapshot's JSON. A change meant only to speed the simulator up must
// leave it identical.
func (w *workload) digest(r repResult) string {
	h := sha256.New()
	b, err := json.Marshal(r.Runs)
	if err != nil {
		panic(err)
	}
	h.Write(b)
	if w.facadeMetrics {
		h.Write(metricsJSON(r.Metrics))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func metricsJSON(s *metrics.Snapshot) []byte {
	if s == nil {
		return []byte("null")
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}

// fidelity checks that replica run i equals façade run i in events fired,
// simulated interval and verify/outcome counts. A mismatch names workload,
// run and field: it means the replica script drifted from the program's.
func (w *workload) fidelity(facade, replica repResult) error {
	if len(facade.Runs) != len(replica.Runs) {
		return fmt.Errorf("%s: facade made %d runs, replica %d", w.name, len(facade.Runs), len(replica.Runs))
	}
	for i, f := range facade.Runs {
		r := replica.Runs[i]
		diff := func(field string, a, b any) error {
			return fmt.Errorf("%s: run %d field %s: facade %v, replica %v", w.name, i, field, a, b)
		}
		switch {
		case f.Seed != r.Seed:
			return diff("seed", f.Seed, r.Seed)
		case f.Fault != r.Fault:
			return diff("fault", f.Fault, r.Fault)
		case f.Events != r.Events:
			return diff("events", f.Events, r.Events)
		case f.SimNS != r.SimNS:
			return diff("sim_ns ("+w.simWhat+")", f.SimNS, r.SimNS)
		case f.OK != r.OK:
			return diff("ok", f.OK, r.OK)
		}
		if len(f.Counts) != len(r.Counts) {
			return diff("counts", f.Counts, r.Counts)
		}
		for k, name := range w.counts[:len(f.Counts)] {
			if f.Counts[k] != r.Counts[k] {
				return diff(name, f.Counts[k], r.Counts[k])
			}
		}
	}
	if w.facadeMetrics && string(metricsJSON(facade.Metrics)) != string(metricsJSON(replica.Metrics)) {
		return fmt.Errorf("%s: field metrics: merged metric snapshots differ", w.name)
	}
	return nil
}
