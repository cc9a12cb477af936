package experiments

import (
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/interconnect"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

func fastValidationConfig() ValidationConfig {
	cfg := DefaultValidationConfig()
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.FillLines = 48
	return cfg
}

func TestValidationEachFaultType(t *testing.T) {
	cfg := fastValidationConfig()
	for _, ft := range fault.AllTypes() {
		for _, seed := range []int64{1, 2, 3, 4} {
			r := Validation(cfg, ft, seed)
			if !r.OK() {
				t.Errorf("%v seed %d failed: recovered=%v note=%s fault=%v",
					ft, seed, r.Recovered, r.Note, r.Fault)
			}
		}
	}
}

// A single validation run is run 0 of its campaign: the same warm-up and the
// same fork as RunCampaign's run 0 (whatever the run count and workers) and
// as the -run-seed replay of run 0, so one seed has one meaning everywhere.
func TestSingleRunIsCampaignRunZero(t *testing.T) {
	cfg := fastValidationConfig()
	const seed = 7
	for _, ft := range append(fault.AllTypes(), fault.ExtendedTypes()...) {
		single := Validation(cfg, ft, seed)
		campaign := RunCampaign(CampaignConfig{Seed: seed, Runs: 3, Workers: 2}, ValidationCampaign{Config: cfg, Fault: ft})
		if !reflect.DeepEqual(single, campaign.Runs[0].Value) {
			t.Errorf("%v: single run != campaign run 0\nsingle:   %+v\ncampaign: %+v", ft, single, campaign.Runs[0].Value)
		}
		if replay := ReplayValidationRun(cfg, ft, seed, 0).Result; !reflect.DeepEqual(single, replay) {
			t.Errorf("%v: single run != replay of run 0\nsingle: %+v\nreplay: %+v", ft, single, replay)
		}
	}
}

func TestValidationPhasesPopulated(t *testing.T) {
	r := Validation(fastValidationConfig(), fault.NodeFailure, 42)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	p := r.Phases
	if !(p.P1 > 0 && p.P1 <= p.P12 && p.P12 <= p.P123 && p.P123 <= p.Total) {
		t.Fatalf("phases not cumulative: %+v", p)
	}
	if p.WB <= 0 || p.Scan <= 0 {
		t.Fatalf("P4 components missing: %+v", p)
	}
}

func TestTable53SmallBatch(t *testing.T) {
	rows, stats := table53(fastValidationConfig(), 2, 7)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Failed != 0 {
			t.Errorf("%v: %d/%d failed", row.Fault, row.Failed, row.Runs)
		}
	}
	if stats.Runs != 10 || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want 10 runs / 0 panics", stats)
	}
	if stats.Events == 0 || stats.EventsPerSec() <= 0 {
		t.Fatalf("throughput accounting missing: %+v", stats)
	}
}

func TestTable53ParallelBitIdenticalToSequential(t *testing.T) {
	seq := fastValidationConfig()
	seq.Workers = 1
	par := fastValidationConfig()
	par.Workers = 8
	for _, ft := range []fault.Type{fault.NodeFailure, fault.RouterFailure} {
		a, _ := validationBatch(seq, ft, 6, 3)
		b, _ := validationBatch(par, ft, 6, 3)
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ", ft)
		}
		for i := range a {
			// Compare the simulated outcomes only; Wall is host time.
			if !reflect.DeepEqual(a[i].Value, b[i].Value) {
				t.Errorf("%v run %d: workers=1 %+v != workers=8 %+v", ft, i, a[i].Value, b[i].Value)
			}
		}
	}
	rowsSeq, _ := table53(seq, 4, 11)
	rowsPar, _ := table53(par, 4, 11)
	if !reflect.DeepEqual(rowsSeq, rowsPar) {
		t.Fatalf("Table53 rows diverge: %+v vs %+v", rowsSeq, rowsPar)
	}
}

func TestTable53PanicIsolation(t *testing.T) {
	cfg := fastValidationConfig()
	cfg.Workers = 4
	cfg.runHook = func(i int) {
		if i == 2 {
			panic("injected driver crash")
		}
	}
	rows, stats := table53(cfg, 4, 5)
	if len(rows) != 5 {
		t.Fatalf("campaign aborted: %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Runs != 4 || row.Failed != 1 {
			t.Errorf("%v: runs=%d failed=%d, want 4/1 (the crashed run)", row.Fault, row.Runs, row.Failed)
		}
	}
	if stats.Failed != 5 { // one panic per fault-type batch
		t.Fatalf("stats.Failed = %d, want 5", stats.Failed)
	}
}

func TestMeasureRecoveryScalesWithNodes(t *testing.T) {
	small := MeasureRecovery(DefaultScalingConfig(8))
	big := MeasureRecovery(DefaultScalingConfig(32))
	if !small.OK || !big.OK {
		t.Fatalf("runs incomplete: %v %v", small.OK, big.OK)
	}
	if big.Phases.P2Time() <= small.Phases.P2Time() {
		t.Errorf("dissemination should grow with node count: 8=%v 32=%v",
			small.Phases.P2Time(), big.Phases.P2Time())
	}
}

// TestP2RoundsWithinBFTBound holds dissemination to the paper's termination
// bound (§4.3): no agent runs more than 2h rounds, h the height of the
// breadth-first tree from the elected root (the lowest surviving node) over
// the surviving graph. A node failure leaves its router and links up, so
// that graph is the whole topology. The 1 024-node hypercube holds it
// because a recovery lane drops only a head that is stuck, not one waiting
// behind state messages that take longer than the head-drop timeout to
// serialize (DESIGN.md §6).
func TestP2RoundsWithinBFTBound(t *testing.T) {
	topos := []struct {
		name  string
		kind  machine.TopoKind
		nodes []int
	}{
		{"mesh", machine.TopoMesh, []int{16, 64, 128}},
		{"hypercube", machine.TopoHypercube, []int{16, 64, 128, 256, 512, 1024}},
	}
	for _, tc := range topos {
		for _, n := range tc.nodes {
			t.Run(fmt.Sprintf("%s-%d", tc.name, n), func(t *testing.T) {
				cfg := DefaultScalingConfig(n)
				cfg.Topo = tc.kind
				p := MeasureRecovery(cfg)
				if !p.OK {
					t.Fatal("recovery incomplete")
				}
				var topo *topology.Topology
				if tc.kind == machine.TopoHypercube {
					topo = topology.NewHypercube(bits.Len(uint(n)) - 1)
				} else {
					topo = topology.NewMesh(machine.MeshShape(n))
				}
				root := 0 // MeasureRecovery never kills node 0
				bound := 2 * topology.NewView(topo).BFS(root).Height
				if p.Phases.MaxRounds == 0 || p.Phases.MaxRounds > bound {
					t.Fatalf("%d P2 rounds, bound 2h = %d", p.Phases.MaxRounds, bound)
				}
				t.Logf("%d P2 rounds, bound 2h = %d", p.Phases.MaxRounds, bound)
			})
		}
	}
}

// TestHypercube4096RecoversIn2hRounds is Fig 5.5's largest point: a node
// failure on the 4 096-node hypercube, where one P2 round charges each agent
// about 32 ms to send and 63 ms to merge. It recovers with no epoch restart
// in 2h rounds because the watchdog counts an agent's charged work as
// progress (DESIGN.md §13). It takes over a minute, allocates 932 MiB and
// peaks at 0.7–0.9 GiB of heap, so it runs only on request:
//
//	FLASHFC_HYPERCUBE_4096=1 go test -count=1 -v -timeout 30m -run TestHypercube4096RecoversIn2hRounds ./internal/experiments
func TestHypercube4096RecoversIn2hRounds(t *testing.T) {
	if os.Getenv("FLASHFC_HYPERCUBE_4096") != "1" {
		t.Skip("set FLASHFC_HYPERCUBE_4096=1 to run the 4 096-node hypercube")
	}
	const n = 4096
	cfg := DefaultScalingConfig(n)
	cfg.Topo = machine.TopoHypercube
	p := MeasureRecovery(cfg)
	ph := p.Phases
	t.Logf("total %v, P1 %v, P1,2 %v, P1,2,3 %v, %d rounds, %d restarts, %d events",
		ph.Total, ph.P1, ph.P12, ph.P123, ph.MaxRounds, ph.Restarts, p.Events)
	if !p.OK {
		t.Fatalf("recovery incomplete or judged bad: %v", p.Judge)
	}
	bound := 2 * topology.NewView(topology.NewHypercube(bits.Len(uint(n))-1)).BFS(0).Height
	if ph.Restarts != 0 || ph.MaxRounds != bound {
		t.Fatalf("%d restarts and %d P2 rounds, want 0 and 2h = %d", ph.Restarts, ph.MaxRounds, bound)
	}
}

// A node failure leaves the victim's router up, so P1's routes between its
// neighbours cross it and their round-1 state messages converge there,
// each longer than the recovery lanes' head-drop timeout on the wire. A
// timeout that dropped any head waiting that long would drop eight of them
// on the 512-node hypercube; a lane that keeps moving drops none.
func TestHypercube512DropsNoRecoveryPacket(t *testing.T) {
	cfg := DefaultScalingConfig(512)
	cfg.Topo = machine.TopoHypercube
	s := scalingScript(cfg)
	drops := 0
	lost := s.M.Net.OnLost
	s.M.Net.OnLost = func(p *interconnect.Packet) {
		if p.Lane.IsRecovery() {
			drops++
		}
		lost(p)
	}
	if p := scalingPoint(s); !p.OK {
		t.Fatal("recovery incomplete")
	}
	if drops != 0 {
		t.Fatalf("%d recovery-lane packets dropped", drops)
	}
}

// core.recovery_restarts counts what the reports' Restarts count: an agent
// joining its first recovery through a higher-epoch ping is not a restart.
// A 128-node hypercube node failure restarts nothing.
func TestRecoveryRestartsCountOnlyRestarts(t *testing.T) {
	cfg := DefaultScalingConfig(128)
	cfg.Topo = machine.TopoHypercube
	p := MeasureRecovery(cfg)
	if !p.OK {
		t.Fatal("recovery incomplete")
	}
	if got := p.Metrics.Counters["core.recovery_restarts"]; got != uint64(p.Phases.Restarts) || got != 0 {
		t.Fatalf("core.recovery_restarts = %d, reports' restarts = %d; want both 0", got, p.Phases.Restarts)
	}
}

func TestFig56L2Linear(t *testing.T) {
	pts := RunCampaign(CampaignConfig{Seed: 3},
		Fig56L2Campaign{L2Sizes: []uint64{512 << 10, 2 << 20, 4 << 20}}).Values()
	if len(pts) != 3 {
		t.Fatal("points missing")
	}
	// WB should scale roughly linearly with the L2 size: 4 MB should be
	// ~8x the 0.5 MB time, allowing generous slack for fixed costs.
	r := float64(pts[2].Phases.WB) / float64(pts[0].Phases.WB)
	if r < 4 || r > 12 {
		t.Errorf("WB(4MB)/WB(0.5MB) = %.1f, want ~8 (WBs: %v %v %v)",
			r, pts[0].Phases.WB, pts[1].Phases.WB, pts[2].Phases.WB)
	}
}

func TestFig56XCoordinates(t *testing.T) {
	l2 := RunCampaign(CampaignConfig{Seed: 3}, Fig56L2Campaign{L2Sizes: []uint64{512 << 10, 4 << 20}}).Values()
	if l2[0].X != 0.5 || l2[1].X != 4 {
		t.Errorf("Fig56L2 X = %v, %v; want 0.5, 4 (MB)", l2[0].X, l2[1].X)
	}
	mem := RunCampaign(CampaignConfig{Seed: 3}, Fig56MemCampaign{MemSizes: []uint64{1 << 20, 16 << 20}}).Values()
	if mem[0].X != 1 || mem[1].X != 16 {
		t.Errorf("Fig56Mem X = %v, %v; want 1, 16 (MB)", mem[0].X, mem[1].X)
	}
	// The machine size stays truthful now that X carries the coordinate.
	for _, p := range append(l2, mem...) {
		if p.Nodes != 4 {
			t.Errorf("Nodes = %d, want the actual 4-node machine", p.Nodes)
		}
		if p.Events == 0 {
			t.Error("point carries no event accounting")
		}
	}
	n := RunCampaign(CampaignConfig{Seed: 3}, Fig55Campaign{Nodes: []int{8}, Topo: machine.TopoMesh}).Values()[0]
	if n.X != 8 {
		t.Errorf("Fig55 X = %v, want the node count", n.X)
	}
}

func TestFig56MemLinear(t *testing.T) {
	pts := RunCampaign(CampaignConfig{Seed: 3}, Fig56MemCampaign{MemSizes: []uint64{1 << 20, 16 << 20}}).Values()
	r := float64(pts[1].Phases.Scan) / float64(pts[0].Phases.Scan)
	if r < 8 || r > 24 {
		t.Errorf("Scan(16MB)/Scan(1MB) = %.1f, want ~16", r)
	}
	// At 16 MB/node the sweep should take tens of ms (paper: ~45 ms).
	if pts[1].Phases.Scan < 20*sim.Millisecond || pts[1].Phases.Scan > 100*sim.Millisecond {
		t.Errorf("Scan(16MB) = %v, want ~45ms", pts[1].Phases.Scan)
	}
}

// TestFig56PerMBShape pins Fig 5.6's shape at the sizes figures -fig 5.6
// sweeps: the flush (WB) costs a fixed time per MB of L2 and the directory
// sweep a fixed time per MB of memory. Each per-MB time stays within ±5 %
// of its sweep's mean, and the mean within ±5 % of what the P4 agent
// charges per MB: 8 192 lines × the flush loop's instructions at the
// uncached rate, and 8 192 lines × the per-line scan cost. A flush charged
// by memory lines, or a sweep by cache lines, breaks both.
func TestFig56PerMBShape(t *testing.T) {
	const linesPerMB = (1 << 20) / timing.LineSize
	check := func(what string, pts []ScalingPoint, phase func(machine.PhaseTimes) sim.Time, charged float64) {
		t.Helper()
		perMB := make([]float64, len(pts))
		mean := 0.0
		for i, p := range pts {
			if !p.OK {
				t.Fatalf("%s at %v MB did not recover", what, p.X)
			}
			perMB[i] = float64(phase(p.Phases)) / p.X
			mean += perMB[i] / float64(len(pts))
		}
		for i, v := range perMB {
			if v < 0.95*mean || v > 1.05*mean {
				t.Errorf("%s at %v MB: %.0f ns/MB, more than 5%% from the mean %.0f", what, pts[i].X, v, mean)
			}
		}
		if mean < 0.95*charged || mean > 1.05*charged {
			t.Errorf("%s: mean %.0f ns/MB, more than 5%% from the charged %.0f", what, mean, charged)
		}
	}
	l2 := RunCampaign(CampaignConfig{Seed: 1}, Fig56L2Campaign{
		L2Sizes: []uint64{512 << 10, 1 << 20, 2 << 20, 4 << 20}}).Values()
	check("WB", l2, func(pt machine.PhaseTimes) sim.Time { return pt.WB },
		float64(linesPerMB*timing.InstrFlushPerLine*timing.UncachedInstrSimOS))
	mem := RunCampaign(CampaignConfig{Seed: 1}, Fig56MemCampaign{
		MemSizes: []uint64{1 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20}}).Values()
	check("scan", mem, func(pt machine.PhaseTimes) sim.Time { return pt.Scan },
		float64(linesPerMB*timing.DirScanPerLine))
}

func TestHypercubeDisseminationFasterAtScale(t *testing.T) {
	mesh := RunCampaign(CampaignConfig{Seed: 5}, Fig55Campaign{Nodes: []int{64}, Topo: machine.TopoMesh}).Values()[0]
	hyper := RunCampaign(CampaignConfig{Seed: 5}, Fig55Campaign{Nodes: []int{64}, Topo: machine.TopoHypercube}).Values()[0]
	if !mesh.OK || !hyper.OK {
		t.Fatal("incomplete runs")
	}
	if hyper.Phases.P2Time() >= mesh.Phases.P2Time() {
		t.Errorf("hypercube P2 (%v) should beat mesh P2 (%v) at 64 nodes",
			hyper.Phases.P2Time(), mesh.Phases.P2Time())
	}
}

func TestEndToEndCleanAndFaulty(t *testing.T) {
	cfg := DefaultEndToEndConfig()
	cfg.MemBytes = 256 << 10
	cfg.L2Bytes = 16 << 10
	for _, ft := range []fault.Type{fault.NodeFailure, fault.InfiniteLoop, fault.LinkFailure, fault.RouterFailure} {
		r := EndToEnd(cfg, ft, 11)
		if !r.OK() {
			t.Errorf("%v: failed (%s); outcome=%+v fault=%v", ft, r.Note, r.Outcome, r.Fault)
		}
	}
}

func TestFig57Monotone(t *testing.T) {
	pts := RunCampaign(CampaignConfig{Seed: 9},
		Fig57Campaign{Nodes: []int{2, 8}, MemBytes: 1 << 20, L2Bytes: 64 << 10}).Values()
	for _, p := range pts {
		if !p.OK {
			t.Fatalf("run at %d nodes failed", p.Nodes)
		}
		if p.HW <= 0 || p.HWOS <= p.HW {
			t.Errorf("suspension times wrong at %d nodes: hw=%v hw+os=%v", p.Nodes, p.HW, p.HWOS)
		}
	}
}

func TestFirewallOverheadUnderSevenPercent(t *testing.T) {
	off, on := FirewallLatency(false, 1), FirewallLatency(true, 1)
	frac := float64(on-off) / float64(off)
	if frac <= 0 {
		t.Fatal("firewall should cost something")
	}
	if frac >= 0.07 {
		t.Fatalf("firewall overhead %.1f%% exceeds the paper's 7%% bound", frac*100)
	}
}

func TestSpeculativePingSpeedsTriggering(t *testing.T) {
	with, pWith := TriggerLatency(32, true, 2)
	without, pWithout := TriggerLatency(32, false, 2)
	if !pWith.OK || !pWithout.OK {
		t.Fatalf("runs failed: with %+v, without %+v", pWith.Judge, pWithout.Judge)
	}
	if with <= 0 || without <= 0 {
		t.Fatalf("latencies not measured: with=%v without=%v", with, without)
	}
	if without <= with {
		t.Errorf("speculative pings should speed triggering: with=%v without=%v", with, without)
	}
}

func TestBFTHintsSpeedDissemination(t *testing.T) {
	on, off := true, false
	cfgOn := DefaultScalingConfig(32)
	cfgOn.BFTHints = &on
	cfgOff := DefaultScalingConfig(32)
	cfgOff.BFTHints = &off
	pOn := MeasureRecovery(cfgOn)
	pOff := MeasureRecovery(cfgOff)
	if !pOn.OK || !pOff.OK {
		t.Fatal("incomplete runs")
	}
	if pOff.Phases.P2Time() <= pOn.Phases.P2Time() {
		t.Errorf("hints should speed dissemination: on=%v off=%v",
			pOn.Phases.P2Time(), pOff.Phases.P2Time())
	}
}

func TestRecoveryDistribution(t *testing.T) {
	d := recoveryDistribution(DefaultScalingConfig(8), 5)
	if d.Failed != 0 {
		t.Fatalf("failed runs: %d", d.Failed)
	}
	if d.Total.N != 5 || d.Total.Min <= 0 || d.Total.Min > d.Total.Max {
		t.Fatalf("total summary: %+v", d.Total)
	}
	// Phase means must add up approximately to the total mean.
	sum := d.P1.Mean + d.P2.Mean + d.P3.Mean + d.P4.Mean
	if sum < 0.8*d.Total.Mean || sum > 1.2*d.Total.Mean {
		t.Fatalf("phases (%v) do not compose to total (%v)", sum, d.Total.Mean)
	}
	if d.Stats.Runs != 5 || d.Stats.Events == 0 {
		t.Fatalf("campaign stats missing: %+v", d.Stats)
	}
	// A crashed run counts as failed and stays out of the summaries.
	cfg := DefaultScalingConfig(8)
	cfg.runHook = func(i int) {
		if i == 3 {
			panic("injected driver crash")
		}
	}
	if d := recoveryDistribution(cfg, 6); d.Failed != 1 || d.Total.N != 5 || d.Stats.Failed != 1 {
		t.Fatalf("with run 3 crashed: Failed=%d Total.N=%d Stats.Failed=%d, want 1/5/1", d.Failed, d.Total.N, d.Stats.Failed)
	}
}

func TestValidationTraceTimeline(t *testing.T) {
	cfg := fastValidationConfig()
	tr := trace.New()
	cfg.Trace = tr
	r := Validation(cfg, fault.NodeFailure, 3)
	if !r.OK() {
		t.Fatalf("run failed: %s", r.Note)
	}
	byKind := map[string][]trace.Point{}
	for _, p := range tr.Timeline() {
		byKind[p.Cat] = append(byKind[p.Cat], p)
	}
	if len(byKind[trace.KindFault]) != 1 {
		t.Fatalf("fault events = %d", len(byKind[trace.KindFault]))
	}
	if phases := byKind[trace.KindPhase]; len(phases) < 10 {
		t.Fatalf("phase events = %d, want a full timeline", len(phases))
	}
	completes := byKind[trace.KindComplete]
	if len(completes) != 7 {
		t.Fatalf("completions = %d, want 7 survivors", len(completes))
	}
	// The fault strictly precedes every completion.
	faultT := byKind[trace.KindFault][0].T
	for _, c := range completes {
		if c.T <= faultT {
			t.Fatal("completion before the fault?")
		}
	}
}
