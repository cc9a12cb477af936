package experiments

import (
	"fmt"
	"math/rand"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
)

// WarmState is a warmed-up validation machine, frozen pre-fault: the
// snapshot is immutable and every run forks its own machine from it, so one
// WarmState may serve any number of concurrent runs.
type WarmState struct {
	Cfg  ValidationConfig
	Snap *machine.Snapshot
	// FillLines is the effective warm-up fill per node (after defaulting).
	FillLines int
}

// WarmupValidation builds the §5.2 validation machine, runs the cache fill
// to completion, drains the engine to a quiescent point, and freezes it.
// The warm-up is seeded by warmSeed alone — derive it with
// DeriveSeed(base, StreamWarmup, 0), never from a run index — so every
// worker of a campaign reconstructs the identical snapshot. It panics if
// the fill cannot quiesce within cfg.Deadline (campaigns turn that into
// failed runs via the runner's panic isolation).
//
// The warm-up machine is never traced: a run's trace covers the forked
// portion only.
func WarmupValidation(cfg ValidationConfig, warmSeed int64) *WarmState {
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Seed = warmSeed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	// The strategy is carried in the snapshot config so forks recover with
	// it; pristine tables are shared by every strategy, so the warm-up
	// itself is strategy-independent.
	mc.Routing = cfg.Routing
	m := machine.New(mc)
	filler := workload.NewFiller(m)
	if cfg.FillLines > 0 && cfg.FillLines < filler.FillLines {
		filler.FillLines = cfg.FillLines
	}
	done := false
	filler.Start(func() { done = true })
	// The fill's completion callback is not quiescence: evicted-line
	// writebacks are fire-and-forget, so drain until nothing is pending.
	for (!done || m.E.Pending() > 0) && m.E.Now() < cfg.Deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
	}
	if !done || m.E.Pending() > 0 {
		panic(fmt.Sprintf("experiments: warm-up did not quiesce within %v (fill done=%v, %d events pending)",
			cfg.Deadline, done, m.E.Pending()))
	}
	return &WarmState{Cfg: cfg, Snap: m.Snapshot(), FillLines: filler.FillLines}
}

// burstLines sizes the post-fork fill burst: BurstLines when set, else a
// quarter of the warm fill (minimum 8) — enough concurrent traffic for the
// fault to land mid-transaction, a fraction of the warm-up's cost.
func (ws *WarmState) burstLines() int {
	if ws.Cfg.BurstLines > 0 {
		return ws.Cfg.BurstLines
	}
	b := ws.FillLines / 4
	if b < 8 {
		b = 8
	}
	return b
}

// ValidationFromWarm performs one validation run by forking ws: a fresh
// machine rehydrated from the snapshot runs a runSeed-private fill burst,
// the fault (also drawn from a runSeed-private stream, so sibling forks
// place different faults) lands once half the burst has committed, and
// recovery plus the whole-memory sweep judge the outcome. The burst doubles
// as detection traffic for quiet faults; ws.Cfg.Deadline bounds it from the
// fork and recovery from the detection read. The engine's own random stream is untouched by
// runSeed — it resumes exactly where the warm-up paused it, which is what
// makes a fork bit-identical to a fresh warm-up continued by the same
// script.
func ValidationFromWarm(ws *WarmState, ft fault.Type, runSeed int64, tr *trace.Tracer) *ValidationResult {
	return validationScript(ws, ft, runSeed, tr).Run()
}

// validationScript is ValidationFromWarm's run as a script value: the fork,
// its burst, the fault mid-burst, and a detection read from the lowest-id
// survivor once the burst is done.
func validationScript(ws *WarmState, ft fault.Type, runSeed int64, tr *trace.Tracer) Script {
	m := machine.FromSnapshot(ws.Snap, tr)
	f := fault.Random(rand.New(rand.NewSource(runSeed)), ft, m.Topo, 1)
	return forkScript(ws, m, runSeed, []fault.Fault{f}, &ValidationResult{Fault: f})
}

// forkScript is the script of a run on the warm fork m: a runSeed-private
// fill burst, faults landing once half of it has committed, the lowest-id
// survivor reading the first fault's victim once the burst is done, and
// ws's deadline and stride (a stride below 1 sweeps every line).
func forkScript(ws *WarmState, m *machine.Machine, runSeed int64, faults []fault.Fault, rec *ValidationResult) Script {
	burst := workload.NewFillerSeeded(m, runSeed)
	burst.FillLines = ws.burstLines()
	return Script{
		M: m, Fill: burst, WaitFill: true, MidFill: faults,
		Kick:   []Touch{{From: -1, To: detectionVictim(m, faults[0])}},
		Budget: ws.Cfg.Deadline, Stride: max(ws.Cfg.Stride, 1), Record: rec,
	}
}
