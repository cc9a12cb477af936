package experiments

import (
	"flashfc/internal/fault"
	"flashfc/internal/hive"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
)

// Table 5.4 / Fig 5.7 drivers: end-to-end recovery of a Hive system running
// the parallel-make workload.

// EndToEndConfig shapes one §5.2 end-to-end experiment.
type EndToEndConfig struct {
	Cells        int
	NodesPerCell int
	MemBytes     uint64
	L2Bytes      uint64
	Make         hive.MakeConfig
	// LegacyIncoherentBug reenables the paper's OS bugs (Table 5.4's 99
	// failed runs); with it off, the fixed OS passes cleanly.
	LegacyIncoherentBug bool
	// Routing names the recovery routing strategy ("" or "paper" keeps the
	// byte-identical pre-strategy pipeline).
	Routing string
	// InjectWindow bounds the random injection time within the run.
	InjectMin, InjectMax sim.Time
	Deadline             sim.Time
}

// DefaultEndToEndConfig returns the §5.1 setup scaled for simulation: 8
// cells with one node each, running eight compiles with cell 0 also acting
// as the file server.
func DefaultEndToEndConfig() EndToEndConfig {
	return EndToEndConfig{
		Cells:        8,
		NodesPerCell: 1,
		MemBytes:     512 << 10,
		L2Bytes:      64 << 10,
		Make:         hive.DefaultMakeConfig(),
		InjectMin:    200 * sim.Microsecond,
		InjectMax:    6 * sim.Millisecond,
		Deadline:     30 * sim.Second,
	}
}

// EndToEndResult is one Table 5.4 run.
type EndToEndResult struct {
	Fault     fault.Fault
	Recovered bool
	// Latent marks a run where the injected fault was never exercised —
	// no traffic crossed the dead component, so no Table 4.1 trigger
	// fired and the workload simply completed. Containment holds
	// trivially in that case.
	Latent  bool
	Outcome *hive.Outcome
	HW, OS  sim.Time
	Note    string
	// Events is the number of simulated events the run's engine fired.
	Events uint64
	// Metrics is the run's machine-wide metric snapshot (always set, even
	// when recovery fails); campaigns merge them per fault type.
	Metrics *metrics.Snapshot
}

// OK reports whether the run counts as successful: every compile not
// affected by the fault finished correctly, after recovery ran — or with
// the fault still latent.
func (r *EndToEndResult) OK() bool {
	return (r.Recovered || r.Latent) && r.Outcome != nil && r.Outcome.OK()
}

// SimEvents, RunMetrics and FillRecord implement RunReport.
func (r *EndToEndResult) SimEvents() uint64             { return r.Events }
func (r *EndToEndResult) RunMetrics() *metrics.Snapshot { return r.Metrics }
func (r *EndToEndResult) FillRecord(rec *obs.RunRecord) {
	rec.Fault = r.Fault.String()
	rec.ContainmentNS = int64(r.HW + r.OS)
	if !r.OK() {
		rec.Outcome, rec.Note = obs.OutcomeFail, r.Note
	}
}

// EndToEnd performs one end-to-end experiment: boot Hive, start the
// parallel make, inject the fault at a random time, and evaluate.
func EndToEnd(cfg EndToEndConfig, ft fault.Type, seed int64) *EndToEndResult {
	mc := hive.MachineConfig(cfg.Cells, cfg.NodesPerCell, cfg.MemBytes, cfg.L2Bytes, seed)
	mc.Routing = cfg.Routing
	m := machine.New(mc)
	hcfg := hive.DefaultConfig(cfg.Cells)
	hcfg.LegacyIncoherentBug = cfg.LegacyIncoherentBug
	h := hive.New(m, hcfg)
	mk := hive.NewMake(h, cfg.Make)

	// The server cell (cell 0) is spared from direct node faults so that
	// most runs exercise the "unaffected compiles must finish" criterion;
	// router and link faults may still take it out.
	f := fault.Random(m.E.Rand(), ft, m.Topo, cfg.NodesPerCell)
	res := &EndToEndResult{Fault: f}
	defer func() {
		res.Events = m.E.EventsFired()
		res.Metrics = m.MetricsSnapshot()
	}()
	window := int64(cfg.InjectMax - cfg.InjectMin)
	at := cfg.InjectMin
	if window > 0 {
		at += sim.Time(m.E.Rand().Int63n(window))
	}
	m.InjectAt(f, at)

	idle := false
	mk.Start(func() { idle = true })
	deadline := cfg.Deadline
	// Give a quiet (latent) fault a grace window after injection before
	// concluding no recovery will trigger.
	settle := at + 300*sim.Millisecond
	for m.E.Now() < deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
		if idle && m.Recovered() && h.OSTime > 0 && mk.Idle() {
			break
		}
		if idle && mk.Idle() && !m.Recovered() && m.E.Now() >= settle {
			// Nothing ever crossed the failed component: the fault
			// is latent and the workload finished untouched.
			res.Latent = true
			res.Note = "fault latent: never exercised by any traffic"
			break
		}
	}
	res.Recovered = m.Recovered()
	if !res.Recovered && !res.Latent {
		res.Note = "hardware recovery incomplete"
		return res
	}
	if !mk.Idle() {
		res.Note = "workload hung"
		res.Outcome = &hive.Outcome{Failures: []string{"workload hung"}}
		return res
	}
	res.Outcome = mk.Evaluate()
	res.HW = h.HWTime
	res.OS = h.OSTime
	return res
}

// EndToEndCampaign repeats §5.1 Hive parallel-make runs of one fault type
// (Table 5.4's per-type batches).
type EndToEndCampaign struct {
	// Config shapes the runs; use DefaultEndToEndConfig() as the base.
	Config EndToEndConfig
	Fault  fault.Type
}

func (c EndToEndCampaign) Stream() int { return runner.StreamEndToEnd + int(c.Fault) }
func (c EndToEndCampaign) Points() int { return 0 }
func (c EndToEndCampaign) Batch() obs.Batch {
	return obs.Batch{Label: "end-to-end", Fault: c.Fault.String()}
}
func (c EndToEndCampaign) Run(_ RunEnv, _ int, seed int64) *EndToEndResult {
	return EndToEnd(c.Config, c.Fault, seed)
}

// Fig57Point is one end-to-end suspension measurement.
type Fig57Point struct {
	Nodes int
	HW    sim.Time // hardware recovery
	HWOS  sim.Time // hardware + OS recovery (user-visible suspension)
	OK    bool
}

// SimEvents, RunMetrics and FillRecord implement RunReport; a point keeps
// the two suspension times only, so it reports no event count or metrics.
func (p Fig57Point) SimEvents() uint64             { return 0 }
func (p Fig57Point) RunMetrics() *metrics.Snapshot { return nil }
func (p Fig57Point) FillRecord(rec *obs.RunRecord) {
	rec.ContainmentNS = int64(p.HWOS)
	if !p.OK {
		rec.Outcome = obs.OutcomeFail
	}
}

// Fig57Campaign sweeps machine sizes (one Hive cell per node) and measures
// user-process suspension after a node failure (Fig 5.7's 16 MB/node, 1 MB
// L2 configuration; sizes are configurable for tractability).
type Fig57Campaign struct {
	Nodes    []int
	MemBytes uint64
	L2Bytes  uint64
}

func (c Fig57Campaign) Stream() int      { return -1 }
func (c Fig57Campaign) Points() int      { return len(c.Nodes) }
func (c Fig57Campaign) Batch() obs.Batch { return obs.Batch{Label: "fig5.7"} }

// Run measures one point on an n-node, n-cell machine. The engine seed
// derives from the node count (not the run index), so a sweep's points are
// independent of which other sizes it measures.
func (c Fig57Campaign) Run(_ RunEnv, i int, seed int64) Fig57Point {
	n := c.Nodes[i]
	cfg := DefaultEndToEndConfig()
	cfg.Cells = n
	cfg.NodesPerCell = 1
	cfg.MemBytes = c.MemBytes
	cfg.L2Bytes = c.L2Bytes
	r := EndToEnd(cfg, fault.NodeFailure, runner.DeriveSeed(seed, runner.StreamFig57, n))
	return Fig57Point{Nodes: n, HW: r.HW, HWOS: r.HW + r.OS, OK: r.OK()}
}
