package main

import (
	"math/rand"

	"flashfc/internal/experiments"
	"flashfc/internal/fault"
	"flashfc/internal/hive"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	simload "flashfc/internal/workload"
)

// Replica scripts: the benchmark's own copies of the program's run scripts
// (experiments.ValidationFromWarm, EndToEnd, PartitionFill, MeasureRecovery),
// with a span around every call into a layer's public functions. They exist
// because this change may not touch the program: every layer is measured
// from outside. The fidelity gate (workload.fidelity) is what tells a later
// change that one of these drifted from the script it copies; once spans
// live inside the program, these are deleted.

// Span names. A layer's phase metric is the summed self time of its span.
const (
	spanRep     = "bench.rep"
	spanRun     = "runner.run"
	spanWarmup  = "experiments.warmup"
	spanNew     = "machine.new"
	spanFork    = "machine.fork"
	spanRecover = "machine.run_to_recovered"
	spanVerify  = "machine.verify"
	spanScrape  = "machine.metrics_scrape"
	spanBoot    = "hive.boot"
	spanMake    = "hive.make"
	spanEval    = "hive.evaluate"
	spanFill    = "workload.fill"
)

// loopSpans are the spans inside which the event loop runs;
// machine.ns_per_event divides their self time by the events they fired.
var loopSpans = []string{spanRecover, spanVerify, spanMake, spanFill}

func table53Replica(in inputs, t *tracer) repResult {
	cfg, runs := table53Config(in)
	facts := func(_ int, seed int64, r *experiments.ValidationResult) runFacts {
		return validationFacts(seed, r, nil)
	}
	return validationReplica(t, cfg, fault.AllTypes(), runs, in.seed, runner.StreamValidation, facts)
}

func tailReplica(in inputs, t *tracer) repResult {
	cfg := tailConfig(in)
	// The tail façade reports runs only as observability records, so the
	// replica reduces its results the same way.
	facts := func(i int, seed int64, r *experiments.ValidationResult) runFacts {
		return recordFacts(experiments.RunRecordOf(i, seed,
			runner.Result[*experiments.ValidationResult]{Value: r, Events: r.Events}))
	}
	return validationReplica(t, cfg.ValidationConfig, fault.ExtendedTypes(), cfg.Runs, in.seed, runner.StreamTail, facts)
}

// validationReplica is one warm-forked validation campaign per fault type,
// as RunCampaign(ValidationCampaign) and RunTailCampaign run them at
// Workers 1: the single worker builds the warm snapshot once per campaign.
func validationReplica(t *tracer, cfg experiments.ValidationConfig, faults []fault.Type, runs int, seed int64, stream int,
	facts func(i int, seed int64, r *experiments.ValidationResult) runFacts) repResult {
	var res repResult
	var snaps []*metrics.Snapshot
	warmSeed := runner.DeriveSeed(seed, runner.StreamWarmup, 0)
	run := 0
	for _, ft := range faults {
		t.begin(spanWarmup)
		ws := experiments.WarmupValidation(cfg, warmSeed)
		t.end()
		for i := 0; i < runs; i++ {
			t.beginRun(run)
			runSeed := runner.DeriveSeed(seed, stream+int(ft), i)
			r, m, loop := validationRun(t, ws, ft, runSeed)
			t.endRun()
			run++
			res.Runs = append(res.Runs, facts(i, runSeed, r))
			snaps = append(snaps, r.Metrics)
			res.loopEvents += loop
			if r.Verify != nil {
				res.verifyLines += int64(r.Verify.LinesChecked)
				res.incoherentLines += int64(r.Verify.Incoherent)
			}
			res.resident = append(res.resident, ws, m)
		}
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

// validationRun copies experiments.ValidationFromWarm.
func validationRun(t *tracer, ws *experiments.WarmState, ft fault.Type, runSeed int64) (*experiments.ValidationResult, *machine.Machine, uint64) {
	cfg := ws.Cfg
	t.begin(spanFork)
	m := machine.FromSnapshot(ws.Snap, nil)
	t.end()
	forked := m.E.EventsFired()

	t.begin(spanRecover)
	rng := rand.New(rand.NewSource(runSeed))
	f := fault.Random(rng, ft, m.Topo, 1)
	res := &experiments.ValidationResult{Fault: f}
	burst := simload.NewFillerSeeded(m, runSeed)
	burst.FillLines = burstLines(ws)
	injected := false
	burst.OnHalfDone = func() {
		injected = true
		m.Inject(f)
	}
	burstDone := false
	burst.Start(func() { burstDone = true })
	deadline := m.E.Now() + cfg.Deadline
	for !burstDone && m.E.Now() < deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
	}
	if !injected {
		m.Inject(f)
	}
	reader := driveDetection(m, f)
	res.Recovered = m.RunUntilRecovered(deadline)
	t.end()

	if res.Recovered {
		res.Phases = m.Aggregate()
		res.AffectedNodes = affectedNodes(m)
		t.begin(spanVerify)
		res.Verify = m.VerifyMemory(reader, cfg.Stride)
		t.end()
	}
	t.begin(spanScrape)
	res.Events = m.E.EventsFired()
	res.Metrics = m.MetricsSnapshot()
	t.end()
	return res, m, res.Events - forked
}

// burstLines copies the unexported WarmState.burstLines.
func burstLines(ws *experiments.WarmState) int {
	if ws.Cfg.BurstLines > 0 {
		return ws.Cfg.BurstLines
	}
	if b := ws.FillLines / 4; b >= 8 {
		return b
	}
	return 8
}

// driveDetection copies the unexported experiments.driveDetection and its
// detectionVictim: the detection read comes from the lowest-id survivor and
// targets memory the fault made unreachable.
func driveDetection(m *machine.Machine, f fault.Fault) int {
	s := m.Survivors()
	if len(s) == 0 {
		return -1
	}
	victim := m.Cfg.Nodes - 1
	switch f.Type {
	case fault.NodeFailure, fault.InfiniteLoop, fault.FailSlow, fault.CPUFail:
		victim = f.Node
	case fault.RouterFailure:
		victim = f.Router
	case fault.LinkFailure, fault.TransientLink:
		victim = m.Topo.Links()[f.Link].B
	}
	m.Nodes[s[0]].CPU.Submit(simload.TouchOp(m, victim))
	return s[0]
}

// affectedNodes copies the unexported experiments.affectedNodes.
func affectedNodes(m *machine.Machine) int {
	healthy := 0
	for _, r := range m.Reports() {
		if !r.ShutDown && !r.Isolated {
			healthy++
		}
	}
	return m.Cfg.Nodes - healthy
}

// hiveReplica copies experiments.EndToEnd, one cold machine per run.
func hiveReplica(in inputs, t *tracer) repResult {
	cfg, runs := hiveConfig(in)
	var res repResult
	var snaps []*metrics.Snapshot
	run := 0
	for _, ft := range hiveFaults {
		for i := 0; i < runs; i++ {
			t.beginRun(run)
			seed := runner.DeriveSeed(in.seed, runner.StreamEndToEnd+int(ft), i)
			r, h := endToEndRun(t, cfg, ft, seed)
			t.endRun()
			run++
			res.Runs = append(res.Runs, endToEndFacts(seed, r, nil))
			snaps = append(snaps, r.Metrics)
			res.loopEvents += r.Events
			res.resident = append(res.resident, h)
		}
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

func endToEndRun(t *tracer, cfg experiments.EndToEndConfig, ft fault.Type, seed int64) (*experiments.EndToEndResult, *hive.Hive) {
	t.begin(spanNew)
	mc := hive.MachineConfig(cfg.Cells, cfg.NodesPerCell, cfg.MemBytes, cfg.L2Bytes, seed)
	mc.Routing = cfg.Routing
	m := machine.New(mc)
	t.end()
	t.begin(spanBoot)
	hcfg := hive.DefaultConfig(cfg.Cells)
	hcfg.LegacyIncoherentBug = cfg.LegacyIncoherentBug
	h := hive.New(m, hcfg)
	mk := hive.NewMake(h, cfg.Make)
	t.end()

	t.begin(spanMake)
	f := fault.Random(m.E.Rand(), ft, m.Topo, cfg.NodesPerCell)
	res := &experiments.EndToEndResult{Fault: f}
	window := int64(cfg.InjectMax - cfg.InjectMin)
	at := cfg.InjectMin
	if window > 0 {
		at += sim.Time(m.E.Rand().Int63n(window))
	}
	m.InjectAt(f, at)
	idle := false
	mk.Start(func() { idle = true })
	settle := at + 300*sim.Millisecond
	for m.E.Now() < cfg.Deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
		if idle && m.Recovered() && h.OSTime > 0 && mk.Idle() {
			break
		}
		if idle && mk.Idle() && !m.Recovered() && m.E.Now() >= settle {
			res.Latent = true
			break
		}
	}
	res.Recovered = m.Recovered()
	t.end()

	switch {
	case !res.Recovered && !res.Latent:
	case !mk.Idle():
		res.Outcome = &hive.Outcome{Failures: []string{"workload hung"}}
	default:
		t.begin(spanEval)
		res.Outcome = mk.Evaluate()
		t.end()
		res.HW = h.HWTime
		res.OS = h.OSTime
	}
	t.begin(spanScrape)
	res.Events = m.E.EventsFired()
	res.Metrics = m.MetricsSnapshot()
	t.end()
	return res, h
}

// fillReplica copies experiments.PartitionFill and its machine builder.
func fillReplica(in inputs, t *tracer, partitions int) repResult {
	cfg, seeds := fillConfig(in, partitions)
	var res repResult
	var snaps []*metrics.Snapshot
	for run, seed := range seeds {
		t.beginRun(run)
		t.begin(spanNew)
		mc := machine.DefaultConfig(cfg.Nodes)
		mc.Seed = seed
		mc.MemBytes = cfg.MemBytes
		mc.L2Bytes = cfg.L2Bytes
		mc.Partitions = cfg.Partitions
		mc.RegionLinkExtra = cfg.RegionLinkExtra
		mc.ParallelWindows = true
		m := machine.New(mc)
		t.end()

		t.begin(spanFill)
		pf := simload.NewPartitionFill(m)
		if cfg.OpsPerNode > 0 {
			pf.OpsPerNode = cfg.OpsPerNode
		}
		pf.Start()
		for !pf.Done() && m.Now() < cfg.Deadline {
			m.Advance(m.Now() + sim.Millisecond)
		}
		t.end()

		t.begin(spanScrape)
		r := &experiments.PartitionResult{Completed: pf.Total() - pf.Remaining(), Total: pf.Total(),
			Now: m.Now(), Events: m.E.EventsFired(), Regions: 1}
		if m.P != nil {
			r.Events = m.P.EventsFired()
			r.Regions = m.P.Regions()
			r.Barriers = m.P.Barriers()
			r.Merged = m.P.Merged()
		}
		r.Metrics = m.MetricsSnapshot()
		t.end()
		t.endRun()

		res.Runs = append(res.Runs, fillFacts(seed, r))
		snaps = append(snaps, r.Metrics)
		res.loopEvents += r.Events
		res.resident = append(res.resident, m)
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}

// recoveryReplica copies experiments.MeasureRecovery.
func recoveryReplica(in inputs, t *tracer) repResult {
	var res repResult
	var snaps []*metrics.Snapshot
	for run, cfg := range recoveryConfigs(in) {
		t.beginRun(run)
		t.begin(spanNew)
		mc := machine.DefaultConfig(cfg.Nodes)
		mc.Topo = cfg.Topo
		mc.Seed = cfg.Seed
		mc.MemBytes = cfg.MemBytes
		mc.L2Bytes = cfg.L2Bytes
		mc.Routing = cfg.Routing
		m := machine.New(mc)
		t.end()

		t.begin(spanRecover)
		victim := cfg.Victim
		if victim < 0 || victim >= cfg.Nodes {
			victim = cfg.Nodes / 2
		}
		if victim == 0 {
			victim = cfg.Nodes - 1
		}
		f := fault.Fault{Type: fault.NodeFailure, Node: victim}
		filler := simload.NewFiller(m)
		if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
			filler.FillLines = cfg.FillLines
		}
		filler.OnHalfDone = func() { m.Inject(f) }
		filler.Start(func() {})
		m.Nodes[0].CPU.Submit(simload.TouchOp(m, victim))
		ok := m.RunUntilRecovered(cfg.Deadline)
		t.end()

		t.begin(spanScrape)
		p := experiments.ScalingPoint{Nodes: cfg.Nodes, X: float64(cfg.Nodes), Phases: m.Aggregate(),
			OK: ok, Events: m.E.EventsFired(), Metrics: m.MetricsSnapshot()}
		t.end()
		t.endRun()

		res.Runs = append(res.Runs, recoveryFacts(cfg, p))
		snaps = append(snaps, p.Metrics)
		res.loopEvents += p.Events
		res.resident = append(res.resident, m)
	}
	res.Metrics = runner.MergeMetrics(snaps)
	return res
}
