package flashfc_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5) plus the §4/§6 ablations. Each iteration runs the full
// simulated experiment; the custom metrics report the simulated quantities
// the paper plots (milliseconds of recovery time, failure counts), while
// the standard ns/op measures host-side simulation cost.
//
// Regenerate everything human-readable with:
//
//	go run ./cmd/tables  -table 5.3
//	go run ./cmd/tables  -table 5.4 [-legacy-bug]
//	go run ./cmd/figures -fig 5.5 | 5.6 | 5.7 | ablations

import (
	"testing"

	"flashfc"
)

// --- Table 5.3: validation experiments --------------------------------------

func benchValidation(b *testing.B, ft flashfc.FaultType) {
	b.Helper()
	cfg := flashfc.DefaultValidationConfig()
	failures := 0
	var totalMS float64
	for i := 0; i < b.N; i++ {
		r := flashfc.RunValidation(cfg, ft, int64(i+1))
		if !r.OK() {
			failures++
		}
		totalMS += r.Phases.Total.Milliseconds()
	}
	b.ReportMetric(float64(failures), "failures")
	b.ReportMetric(totalMS/float64(b.N), "recovery-ms")
}

func BenchmarkTable5_3_NodeFailure(b *testing.B)   { benchValidation(b, flashfc.NodeFailure) }
func BenchmarkTable5_3_RouterFailure(b *testing.B) { benchValidation(b, flashfc.RouterFailure) }
func BenchmarkTable5_3_LinkFailure(b *testing.B)   { benchValidation(b, flashfc.LinkFailure) }
func BenchmarkTable5_3_InfiniteLoop(b *testing.B)  { benchValidation(b, flashfc.InfiniteLoop) }
func BenchmarkTable5_3_FalseAlarm(b *testing.B)    { benchValidation(b, flashfc.FalseAlarm) }

// --- Table 5.4: end-to-end recovery experiments ------------------------------

func benchEndToEnd(b *testing.B, ft flashfc.FaultType, legacyBug bool) {
	b.Helper()
	cfg := flashfc.DefaultEndToEndConfig()
	cfg.MemBytes = 256 << 10
	cfg.L2Bytes = 32 << 10
	cfg.LegacyIncoherentBug = legacyBug
	failures := 0
	var hwMS float64
	for i := 0; i < b.N; i++ {
		r := flashfc.RunEndToEnd(cfg, ft, int64(i+1))
		if !r.OK() {
			failures++
		}
		hwMS += r.HW.Milliseconds()
	}
	b.ReportMetric(float64(failures), "failures")
	b.ReportMetric(hwMS/float64(b.N), "hw-recovery-ms")
}

func BenchmarkTable5_4_NodeFailure(b *testing.B)   { benchEndToEnd(b, flashfc.NodeFailure, false) }
func BenchmarkTable5_4_RouterFailure(b *testing.B) { benchEndToEnd(b, flashfc.RouterFailure, false) }
func BenchmarkTable5_4_LinkFailure(b *testing.B)   { benchEndToEnd(b, flashfc.LinkFailure, false) }
func BenchmarkTable5_4_InfiniteLoop(b *testing.B)  { benchEndToEnd(b, flashfc.InfiniteLoop, false) }
func BenchmarkTable5_4_LegacyBugOS(b *testing.B)   { benchEndToEnd(b, flashfc.NodeFailure, true) }

// --- Fig 5.5: hardware recovery time vs machine size -------------------------

func benchFig55(b *testing.B, nodes int, topo flashfc.TopoKind) {
	b.Helper()
	var p1, p12, p123, total float64
	for i := 0; i < b.N; i++ {
		cfg := flashfc.DefaultScalingConfig(nodes)
		cfg.Topo = topo
		cfg.Seed = int64(i + 1)
		p := flashfc.MeasureRecovery(cfg)
		if !p.OK {
			b.Fatal("recovery incomplete")
		}
		p1 += p.Phases.P1.Milliseconds()
		p12 += p.Phases.P12.Milliseconds()
		p123 += p.Phases.P123.Milliseconds()
		total += p.Phases.Total.Milliseconds()
	}
	n := float64(b.N)
	b.ReportMetric(p1/n, "P1-ms")
	b.ReportMetric(p12/n, "P12-ms")
	b.ReportMetric(p123/n, "P123-ms")
	b.ReportMetric(total/n, "total-ms")
}

func BenchmarkFig5_5_Mesh8(b *testing.B)        { benchFig55(b, 8, flashfc.TopoMesh) }
func BenchmarkFig5_5_Mesh32(b *testing.B)       { benchFig55(b, 32, flashfc.TopoMesh) }
func BenchmarkFig5_5_Mesh64(b *testing.B)       { benchFig55(b, 64, flashfc.TopoMesh) }
func BenchmarkFig5_5_Mesh128(b *testing.B)      { benchFig55(b, 128, flashfc.TopoMesh) }
func BenchmarkFig5_5_Hypercube64(b *testing.B)  { benchFig55(b, 64, flashfc.TopoHypercube) }
func BenchmarkFig5_5_Hypercube128(b *testing.B) { benchFig55(b, 128, flashfc.TopoHypercube) }

// --- Fig 5.6: coherence recovery vs L2 and memory size ------------------------

func benchFig56L2(b *testing.B, l2 uint64) {
	b.Helper()
	var wb, p4 float64
	for i := 0; i < b.N; i++ {
		p := flashfc.RunCampaign(flashfc.CampaignConfig{Seed: int64(i + 1), Workers: 1},
			flashfc.Fig56L2Campaign{L2Sizes: []uint64{l2}}).Values()[0]
		wb += p.Phases.WB.Milliseconds()
		p4 += p.Phases.P4Time().Milliseconds()
	}
	b.ReportMetric(wb/float64(b.N), "WB-ms")
	b.ReportMetric(p4/float64(b.N), "P4-ms")
}

func BenchmarkFig5_6_L2_512KB(b *testing.B) { benchFig56L2(b, 512<<10) }
func BenchmarkFig5_6_L2_1MB(b *testing.B)   { benchFig56L2(b, 1<<20) }
func BenchmarkFig5_6_L2_4MB(b *testing.B)   { benchFig56L2(b, 4<<20) }

func benchFig56Mem(b *testing.B, mem uint64) {
	b.Helper()
	var scan, p4 float64
	for i := 0; i < b.N; i++ {
		p := flashfc.RunCampaign(flashfc.CampaignConfig{Seed: int64(i + 1), Workers: 1},
			flashfc.Fig56MemCampaign{MemSizes: []uint64{mem}}).Values()[0]
		scan += p.Phases.Scan.Milliseconds()
		p4 += p.Phases.P4Time().Milliseconds()
	}
	b.ReportMetric(scan/float64(b.N), "scan-ms")
	b.ReportMetric(p4/float64(b.N), "P4-ms")
}

func BenchmarkFig5_6_Mem1MB(b *testing.B)  { benchFig56Mem(b, 1<<20) }
func BenchmarkFig5_6_Mem16MB(b *testing.B) { benchFig56Mem(b, 16<<20) }
func BenchmarkFig5_6_Mem64MB(b *testing.B) { benchFig56Mem(b, 64<<20) }

// --- Fig 5.7: end-to-end suspension time -------------------------------------

func benchFig57(b *testing.B, cells int) {
	b.Helper()
	var hw, hwos float64
	for i := 0; i < b.N; i++ {
		pts := flashfc.RunCampaign(flashfc.CampaignConfig{Seed: int64(i + 1), Workers: 1},
			flashfc.Fig57Campaign{Nodes: []int{cells}, MemBytes: 2 << 20, L2Bytes: 256 << 10}).Values()
		if !pts[0].OK {
			b.Fatal("run failed")
		}
		hw += pts[0].HW.Milliseconds()
		hwos += pts[0].HWOS.Milliseconds()
	}
	b.ReportMetric(hw/float64(b.N), "HW-ms")
	b.ReportMetric(hwos/float64(b.N), "HW+OS-ms")
}

func BenchmarkFig5_7_Cells2(b *testing.B)  { benchFig57(b, 2) }
func BenchmarkFig5_7_Cells8(b *testing.B)  { benchFig57(b, 8) }
func BenchmarkFig5_7_Cells16(b *testing.B) { benchFig57(b, 16) }

// --- Parallel campaign runner: sequential vs parallel wall clock --------------

// benchCampaign runs a fixed 16-run validation campaign per iteration on
// the given worker count. Comparing the Workers1/Workers4 ns/op shows the
// runner's wall-clock speedup on a multi-core host (the results themselves
// are bit-identical by construction — the campaign checks so here).
func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	cfg := flashfc.DefaultValidationConfig()
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.FillLines = 48
	cfg.Workers = workers
	var eventsPerSec float64
	for i := 0; i < b.N; i++ {
		out := flashfc.RunCampaign(
			flashfc.CampaignConfig{Seed: int64(i + 1), Runs: 16, Workers: cfg.Workers},
			flashfc.ValidationCampaign{Config: cfg, Fault: flashfc.NodeFailure})
		for _, r := range out.Runs {
			if r.Err != nil || !r.Value.OK() {
				b.Fatalf("campaign run failed: %v", r.Err)
			}
		}
		eventsPerSec += out.Stats.EventsPerSec()
	}
	b.ReportMetric(eventsPerSec/float64(b.N)/1e6, "sim-Mevents/s")
}

func BenchmarkCampaignWorkers1(b *testing.B) { benchCampaign(b, 1) }
func BenchmarkCampaignWorkers2(b *testing.B) { benchCampaign(b, 2) }
func BenchmarkCampaignWorkers4(b *testing.B) { benchCampaign(b, 4) }
func BenchmarkCampaignWorkers8(b *testing.B) { benchCampaign(b, 8) }

// BenchmarkCampaignTable53 measures the whole Table 5.3 regeneration (all
// five fault types) at the host's full parallelism — the headline number
// for "regenerate the paper's evaluation as fast as the hardware allows".
func BenchmarkCampaignTable53(b *testing.B) {
	cfg := flashfc.DefaultValidationConfig()
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.FillLines = 48
	cfg.Workers = 0 // one per CPU
	var eventsPerSec float64
	for i := 0; i < b.N; i++ {
		var stats flashfc.CampaignStats
		for _, ft := range flashfc.AllFaultTypes() {
			out := flashfc.RunCampaign(
				flashfc.CampaignConfig{Seed: int64(i + 1), Runs: 4, Workers: cfg.Workers},
				flashfc.ValidationCampaign{Config: cfg, Fault: ft})
			for _, r := range out.Runs {
				if r.Err != nil || !r.Value.OK() {
					b.Fatalf("%v: run failed: %v", ft, r.Err)
				}
			}
			stats.Merge(out.Stats)
		}
		eventsPerSec += stats.EventsPerSec()
	}
	b.ReportMetric(eventsPerSec/float64(b.N)/1e6, "sim-Mevents/s")
}

// --- §6.2: firewall normal-mode cost ------------------------------------------

func BenchmarkFirewallOverhead(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac += flashfc.FirewallOverheadFraction(int64(i + 1))
	}
	pct := 100 * frac / float64(b.N)
	b.ReportMetric(pct, "overhead-%")
	if pct >= 7 {
		b.Fatalf("firewall overhead %.1f%% exceeds the paper's 7%% bound", pct)
	}
}

// --- §4.2: speculative-ping trigger speedup ------------------------------------

func BenchmarkAblationSpeculativePing(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		with := flashfc.TriggerLatency(32, true, int64(i+1))
		without := flashfc.TriggerLatency(32, false, int64(i+1))
		speedup += float64(without) / float64(with)
	}
	b.ReportMetric(speedup/float64(b.N), "trigger-speedup-x")
}

// --- §4.3: BFT-hint scheduling -------------------------------------------------

func BenchmarkAblationBFTHints(b *testing.B) {
	on, off := true, false
	var withMS, withoutMS float64
	for i := 0; i < b.N; i++ {
		cfgOn := flashfc.DefaultScalingConfig(32)
		cfgOn.BFTHints = &on
		cfgOn.Seed = int64(i + 1)
		cfgOff := flashfc.DefaultScalingConfig(32)
		cfgOff.BFTHints = &off
		cfgOff.Seed = int64(i + 1)
		withMS += flashfc.MeasureRecovery(cfgOn).Phases.P2Time().Milliseconds()
		withoutMS += flashfc.MeasureRecovery(cfgOff).Phases.P2Time().Milliseconds()
	}
	b.ReportMetric(withMS/float64(b.N), "P2-with-hints-ms")
	b.ReportMetric(withoutMS/float64(b.N), "P2-without-hints-ms")
}

// --- Simulator throughput -------------------------------------------------------

func BenchmarkSimulatorEventRate(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := flashfc.DefaultScalingConfig(32)
		cfg.Seed = int64(i + 1)
		m := flashfc.NewMachine(func() flashfc.MachineConfig {
			mc := flashfc.DefaultMachineConfig(cfg.Nodes)
			mc.Seed = cfg.Seed
			mc.MemBytes = 256 << 10
			mc.L2Bytes = 64 << 10
			return mc
		}())
		m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 5}, flashfc.Millisecond)
		m.E.At(flashfc.Millisecond, func() {
			m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, 5))
		})
		m.RunUntilRecovered(5 * flashfc.Second)
		events += m.E.EventsFired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/recovery")
}

// --- §6.2: hardwired vs programmable controller ---------------------------------

func BenchmarkAblationHardwiredController(b *testing.B) {
	measure := func(hardwired bool, seed int64) float64 {
		cfg := flashfc.DefaultScalingConfig(8)
		cfg.Seed = seed
		base := flashfc.DefaultMachineConfig(8)
		base.Seed = seed
		base.Recovery.HardwiredController = hardwired
		m := flashfc.NewMachine(base)
		m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 4}, flashfc.Millisecond)
		m.E.At(flashfc.Millisecond, func() { m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, 4)) })
		if !m.RunUntilRecovered(10 * flashfc.Second) {
			b.Fatal("recovery incomplete")
		}
		return m.Aggregate().P4Time().Milliseconds()
	}
	var flex, hard float64
	for i := 0; i < b.N; i++ {
		flex += measure(false, int64(i+1))
		hard += measure(true, int64(i+1))
	}
	b.ReportMetric(flex/float64(b.N), "P4-programmable-ms")
	b.ReportMetric(hard/float64(b.N), "P4-hardwired-ms")
}

// --- §5.3: SimOS vs RTL uncached-instruction timing ------------------------------

func BenchmarkAblationRTLTiming(b *testing.B) {
	measure := func(rtl bool, seed int64) float64 {
		base := flashfc.DefaultMachineConfig(8)
		base.Seed = seed
		if rtl {
			base.Recovery.UncachedInstr = 390 // §5.3's RTL-calibrated value
		}
		m := flashfc.NewMachine(base)
		m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 4}, flashfc.Millisecond)
		m.E.At(flashfc.Millisecond, func() { m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, 4)) })
		if !m.RunUntilRecovered(10 * flashfc.Second) {
			b.Fatal("recovery incomplete")
		}
		return m.Aggregate().Total.Milliseconds()
	}
	var simos, rtl float64
	for i := 0; i < b.N; i++ {
		simos += measure(false, int64(i+1))
		rtl += measure(true, int64(i+1))
	}
	b.ReportMetric(simos/float64(b.N), "total-320ns-ms")
	b.ReportMetric(rtl/float64(b.N), "total-390ns-ms")
}

// --- Tracing overhead: disabled tracer must be free ------------------------------

// The span/point hooks sit on simulation hot paths (packet routing,
// gossip rounds, directory scans). A nil tracer must cost nothing: no
// allocations, just a nil check. testing.AllocsPerRun makes the contract a
// failing test, not a trend to eyeball.

func BenchmarkTracerDisabledSpanPath(b *testing.B) {
	var tr *flashfc.Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(1, 0, "node-recovery", 0, 1)
		tr.Point(2, 0, "pkt", "inject", 1, 3, 0)
		tr.End(3, id)
	}); allocs != 0 {
		b.Fatalf("nil tracer span path allocates %.0f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(1, 0, "node-recovery", 0, 1)
		tr.Point(2, 0, "pkt", "inject", 1, 3, 0)
		tr.End(3, id)
	}
}

func BenchmarkTracerDisabledRecord(b *testing.B) {
	var tr *flashfc.Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(1, 0, "phase", "noop")
	}); allocs != 0 {
		b.Fatalf("nil tracer Record allocates %.0f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(1, 0, "phase", "noop")
	}
}

// BenchmarkTracerEnabledSpanPath is the paired enabled-path number, for
// judging the cost of turning tracing on.
func BenchmarkTracerEnabledSpanPath(b *testing.B) {
	tr := flashfc.NewTracer()
	root := tr.EnsureRoot(0, "recovery")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(flashfc.Time(i), 0, "gossip-round", root, int64(i))
		tr.End(flashfc.Time(i)+1, id)
	}
}

// --- §6.3: HAL-style reliable interconnect ---------------------------------------

func BenchmarkAblationReliableInterconnect(b *testing.B) {
	measure := func(reliable bool, seed int64) float64 {
		cfg := flashfc.DefaultMachineConfig(8)
		cfg.Seed = seed
		cfg.ReliableInterconnect = reliable
		m := flashfc.NewMachine(cfg)
		m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 5}, flashfc.Millisecond)
		m.E.At(flashfc.Millisecond, func() { m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, 5)) })
		if !m.RunUntilRecovered(10 * flashfc.Second) {
			b.Fatal("recovery incomplete")
		}
		return m.Aggregate().P4Time().Milliseconds()
	}
	var flushed, flushFree float64
	for i := 0; i < b.N; i++ {
		flushed += measure(false, int64(i+1))
		flushFree += measure(true, int64(i+1))
	}
	b.ReportMetric(flushed/float64(b.N), "P4-flushed-ms")
	b.ReportMetric(flushFree/float64(b.N), "P4-flushfree-ms")
}
