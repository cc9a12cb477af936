package experiments

import (
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// Fig 5.5 / Fig 5.6 drivers: hardware recovery time scaling.

// ScalingConfig shapes one recovery-time measurement.
type ScalingConfig struct {
	Nodes    int
	Topo     machine.TopoKind
	MemBytes uint64 // per-node memory (drives the P4 directory sweep)
	L2Bytes  uint64 // L2 size (drives the P4 flush)
	// FillLines bounds the workload's cache fill; the P4 charges use the
	// configured sizes regardless, as in Fig 5.6's no-contention model.
	FillLines int
	Seed      int64
	Deadline  sim.Time
	// Routing names the recovery routing strategy ("" or "paper" keeps the
	// byte-identical pre-strategy pipeline).
	Routing string
	// Victim selects the node to kill; -1 picks the middle of the mesh.
	Victim int
	// BFTHints, when non-nil, switches the §4.3 BFT-hint optimization for
	// its ablation; nil keeps the default (on).
	BFTHints *bool
	// runHook, when non-nil, runs at the start of every
	// DistributionCampaign run with the run index; test-only, see
	// ValidationConfig.runHook.
	runHook func(i int)
}

// DefaultScalingConfig is the Fig 5.5 configuration: mesh, 1 MB memory per
// node, 1 MB L2, a node failure.
func DefaultScalingConfig(nodes int) ScalingConfig {
	return ScalingConfig{
		Nodes:     nodes,
		Topo:      machine.TopoMesh,
		MemBytes:  1 << 20,
		L2Bytes:   1 << 20,
		FillLines: 128,
		Seed:      1,
		Victim:    -1,
		Deadline:  20 * sim.Second,
	}
}

// ScalingPoint is one measured configuration.
type ScalingPoint struct {
	// Nodes is the machine size the point was measured on.
	Nodes int
	// X is the point's x-coordinate in the sweep that produced it: the
	// node count for Fig55, the swept size in MB for Fig56L2/Fig56Mem.
	// (Fig56 previously abused Nodes for this, which truncated sub-MB
	// cache sizes to 0.)
	X      float64
	Phases machine.PhaseTimes
	// OK is set when recovery completed and machine.Judge found nothing.
	OK bool
	// Judge is the recovered machine's verdict; empty on a passing run and
	// on one that did not recover.
	Judge machine.Judgement
	// Livelock is the note of a recovery the machine stopped because two
	// consecutive epochs repeated (machine.Livelock); empty otherwise.
	Livelock string
	// Events is the number of simulated events the run's engine fired.
	Events uint64
	// Metrics is the run's machine-wide metric snapshot; sweeps merge the
	// points' snapshots into a campaign aggregate.
	Metrics *metrics.Snapshot
}

// SimEvents, RunMetrics and FillRecord implement RunReport.
func (p ScalingPoint) SimEvents() uint64             { return p.Events }
func (p ScalingPoint) RunMetrics() *metrics.Snapshot { return p.Metrics }
func (p ScalingPoint) FillRecord(rec *obs.RunRecord) {
	rec.ContainmentNS = int64(p.Phases.Total)
	switch {
	case p.Livelock != "":
		rec.Outcome, rec.Note = obs.OutcomeLivelock, p.Livelock
	case !p.OK:
		rec.Outcome = obs.OutcomeFail
		if !p.Judge.OK() {
			rec.Note = p.Judge.String()
		}
	}
}

// MeasureRecovery builds the machine, fills caches lightly, injects a node
// failure, and returns the aggregated per-phase recovery times. A recovered
// machine is judged (machine.Judge); a violation fails the point.
func MeasureRecovery(cfg ScalingConfig) ScalingPoint { return scalingPoint(scalingScript(cfg)) }

// scalingPoint runs s as a recovery measurement: the phase times of
// whatever reported, OK when recovery completed and the judge passed.
func scalingPoint(s Script) ScalingPoint {
	rec := s.Run()
	n := len(s.M.Nodes)
	p := ScalingPoint{Nodes: n, X: float64(n), Phases: s.M.Aggregate(), OK: rec.Recovered && rec.Judge.OK(),
		Judge: rec.Judge, Events: rec.Events, Metrics: rec.Metrics}
	if rec.Livelock {
		p.Livelock = rec.Note
	}
	return p
}

// scalingScript is MeasureRecovery's run: the node failure lands half way
// through a light fill, and node 0's read of the victim's memory is
// submitted at the start, behind its own fill.
func scalingScript(cfg ScalingConfig) Script {
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Topo = cfg.Topo
	mc.Seed = cfg.Seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Routing = cfg.Routing
	if cfg.BFTHints != nil {
		mc.Recovery.BFTHints = *cfg.BFTHints
	}
	m := machine.New(mc)
	victim := cfg.Victim
	if victim < 0 || victim >= cfg.Nodes {
		victim = cfg.Nodes / 2
	}
	if victim == 0 {
		victim = cfg.Nodes - 1
	}
	f := fault.Fault{Type: fault.NodeFailure, Node: victim}
	filler := workload.NewFiller(m)
	if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
		filler.FillLines = cfg.FillLines
	}
	return Script{M: m, Fill: filler, MidFill: []fault.Fault{f}, Kick: []Touch{{0, victim}},
		Budget: cfg.Deadline, Record: &ValidationResult{Fault: f}}
}

// Fig55Campaign sweeps machine sizes and measures total hardware recovery
// time per size (Fig 5.5). Every point uses the campaign's base seed, as in
// the paper's single-curve presentation.
type Fig55Campaign struct {
	Nodes []int
	Topo  machine.TopoKind
	// Routing optionally names the recovery routing strategy ("" = paper).
	Routing string
}

func (c Fig55Campaign) Stream() int      { return -1 }
func (c Fig55Campaign) Points() int      { return len(c.Nodes) }
func (c Fig55Campaign) Batch() obs.Batch { return obs.Batch{Label: "fig5.5"} }
func (c Fig55Campaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	cfg := DefaultScalingConfig(c.Nodes[i])
	cfg.Topo = c.Topo
	cfg.Seed = seed
	cfg.Routing = c.Routing
	return MeasureRecovery(cfg)
}

// Fig56L2Campaign sweeps the second-level cache size at 4 nodes (Fig 5.6
// left): the flush component of coherence recovery scales with the L2.
type Fig56L2Campaign struct {
	L2Sizes []uint64
	// Routing optionally names the recovery routing strategy ("" = paper).
	Routing string
}

func (c Fig56L2Campaign) Stream() int      { return -1 }
func (c Fig56L2Campaign) Points() int      { return len(c.L2Sizes) }
func (c Fig56L2Campaign) Batch() obs.Batch { return obs.Batch{Label: "fig5.6-l2"} }
func (c Fig56L2Campaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	cfg := DefaultScalingConfig(4)
	cfg.L2Bytes = c.L2Sizes[i]
	cfg.MemBytes = 4 << 20
	cfg.Seed = seed
	cfg.Routing = c.Routing
	p := MeasureRecovery(cfg)
	p.X = float64(c.L2Sizes[i]) / (1 << 20)
	return p
}

// Fig56MemCampaign sweeps the per-node memory size at 4 nodes (Fig 5.6
// right): the directory-sweep component scales with memory.
type Fig56MemCampaign struct {
	MemSizes []uint64
	// Routing optionally names the recovery routing strategy ("" = paper).
	Routing string
}

func (c Fig56MemCampaign) Stream() int      { return -1 }
func (c Fig56MemCampaign) Points() int      { return len(c.MemSizes) }
func (c Fig56MemCampaign) Batch() obs.Batch { return obs.Batch{Label: "fig5.6-mem"} }
func (c Fig56MemCampaign) Run(_ RunEnv, i int, seed int64) ScalingPoint {
	cfg := DefaultScalingConfig(4)
	cfg.MemBytes = c.MemSizes[i]
	cfg.Seed = seed
	cfg.Routing = c.Routing
	p := MeasureRecovery(cfg)
	p.X = float64(c.MemSizes[i]) / (1 << 20)
	return p
}

// TriggerLatency measures the §4.2 recovery-triggering latency: the time
// from fault injection until the last functioning node has dropped into
// recovery, with or without speculative pings (the paper reports the
// optimization speeds up triggering about fivefold). The point carries the
// run's verdict.
func TriggerLatency(nodes int, speculative bool, seed int64) (sim.Time, ScalingPoint) {
	var lastEnter sim.Time
	s := triggerScript(nodes, speculative, seed, &lastEnter)
	p := scalingPoint(s)
	return lastEnter - s.Timed[0].At, p
}

// triggerScript is TriggerLatency's run: on a small machine with no fill,
// the middle node fails at 10 µs and node 0 reads its memory in the same
// event. Every entry into recovery sets *lastEnter to the simulated time.
func triggerScript(nodes int, speculative bool, seed int64, lastEnter *sim.Time) Script {
	mc := machine.DefaultConfig(nodes)
	mc.Seed = seed
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	mc.Recovery.SpeculativePing = speculative
	var m *machine.Machine
	mc.Recovery.OnEnter = func(int) { *lastEnter = m.E.Now() }
	m = machine.New(mc)
	f := fault.Fault{Type: fault.NodeFailure, Node: nodes / 2}
	return Script{M: m, Budget: 10 * sim.Second, Record: &ValidationResult{Fault: f},
		Timed: []Step{{At: 10 * sim.Microsecond, Faults: []fault.Fault{f}, Touches: []Touch{{0, f.Node}}}}}
}

// SingleFault runs the §5.3/§6 ablations' faulted run on the 8-node default
// machine that set adjusts: node 4 fails at 1 ms, and node 0 reads its
// memory in a second event at 1 ms.
func SingleFault(seed int64, set func(*machine.Config)) ScalingPoint {
	return scalingPoint(singleFaultScript(seed, set))
}

// singleFaultScript is SingleFault's run.
func singleFaultScript(seed int64, set func(*machine.Config)) Script {
	mc := machine.DefaultConfig(8)
	mc.Seed = seed
	set(&mc)
	f := fault.Fault{Type: fault.NodeFailure, Node: 4}
	return Script{M: machine.New(mc), Budget: 10 * sim.Second, Record: &ValidationResult{Fault: f},
		Timed: []Step{{At: sim.Millisecond, Faults: []fault.Fault{f}}, {At: sim.Millisecond, Touches: []Touch{{0, 4}}}}}
}
