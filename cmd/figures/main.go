// Command figures regenerates the paper's evaluation figures as data
// series.
//
//	figures -fig 5.5            hardware recovery time vs machine size
//	figures -fig 5.6            coherence recovery vs L2 size and memory size
//	figures -fig 5.7            end-to-end suspension time vs machine size
//	figures -fig ablations      §4.2 / §4.3 / §5.3 / §6.2 / §6.3 optimization measurements
//	figures -fig dist           recovery-time distributions across random faults
//
// Each sweep is one campaign through the Campaign API: its points are
// independent simulations, measured on -workers goroutines (default: one
// per CPU) with bit-identical results. -metrics appends the sweep's
// aggregate metric registry (every point's machine-wide snapshot, merged)
// for figs 5.5, 5.6 and dist. -runs sets the seeds of the dist sweep.
// -run-log streams one JSONL record per point/run (byte-identical at any
// -workers) and -progress reports live sweep progress on stderr. A flag the
// chosen figure does not read (-runs outside dist, -full outside 5.7,
// -metrics or -routing on 5.7, every campaign flag on ablations) exits 2,
// as do the trace flags, which trace one run, on every figure.
//
// A point whose recovery did not complete, or that recovered and failed
// the judge, is named on stderr after the figure is printed, and figures
// then exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flashfc"
	"flashfc/internal/cliflags"
	"flashfc/internal/experiments"
	"flashfc/internal/timing"
)

func main() {
	fig := flag.String("fig", "5.5", "figure to regenerate: 5.5, 5.6, 5.7, ablations, dist")
	full := flag.Bool("full", false, "paper-scale parameters (16 MB/node for 5.7)")
	cf := cliflags.Register(flag.CommandLine, cliflags.Defaults{Runs: 12})
	flag.Parse()
	cf.Check()
	cf.RejectIgnored("figures", cliflags.TraceFlags...)
	cf.RejectIgnored("-fig "+*fig, ignored[*fig]...)
	// Profiles are flushed on the normal return path; a failing campaign
	// exits without them.
	defer cf.StartProfiles()()

	var failed failures
	switch *fig {
	case "5.5":
		failed = fig55(cf)
	case "5.6":
		failed = fig56(cf)
	case "5.7":
		failed = fig57(cf, *full)
	case "ablations":
		failed = ablations(cf.Seed)
	case "dist":
		failed = dist(cf)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if failed.report(os.Stderr) {
		os.Exit(1)
	}
}

// ignored lists, per figure, the flags it never reads. Only dist has runs
// to count, and only 5.7 has a paper-scale size.
var ignored = map[string][]string{
	"5.5":       {"runs", "full", "metrics-json"},
	"5.6":       {"runs", "full", "metrics-json"},
	"5.7":       {"runs", "metrics", "metrics-json", "routing"},
	"ablations": {"runs", "workers", "parallel", "metrics", "metrics-json", "routing", "run-log", "run-log-host", "progress", "full"},
	"dist":      {"full", "metrics-json"},
}

// failures names the points of a figure that failed, and how.
type failures []string

// check records the point format names as not recovered unless ok.
func (f *failures) check(ok bool, format string, args ...any) {
	if !ok {
		*f = append(*f, fmt.Sprintf(format, args...)+" did not recover")
	}
}

// checkPoint records a scaling point that failed: one that did not recover,
// or one that recovered and failed the judge, named with its verdict.
func (f *failures) checkPoint(p flashfc.ScalingPoint, format string, args ...any) {
	if p.Judge.OK() {
		f.check(p.OK, format, args...)
		return
	}
	*f = append(*f, fmt.Sprintf(format, args...)+" failed the "+p.Judge.String())
}

// report names each failed point on w and reports whether any failed.
func (f failures) report(w io.Writer) bool {
	for _, p := range f {
		fmt.Fprintf(w, "figures: %s\n", p)
	}
	return len(f) > 0
}

func fig55(cf *cliflags.Flags) (failed failures) {
	start := time.Now()
	fmt.Println("Fig 5.5 — total hardware recovery times (1 MB memory/node, 1 MB L2)")
	fmt.Println("\nmesh topology:")
	fmt.Printf("%6s %12s %12s %12s %12s %8s\n", "nodes", "P1", "P1,2", "P1,2,3", "total", "rounds")
	nodes := []int{2, 8, 16, 32, 64, 128}
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	var events uint64
	var snaps []*flashfc.MetricsSnapshot
	mesh := flashfc.RunCampaign(ccfg, flashfc.Fig55Campaign{Nodes: nodes, Topo: flashfc.TopoMesh, Routing: cf.Routing})
	for _, p := range mesh.Values() {
		ph := p.Phases
		fmt.Printf("%6d %12v %12v %12v %12v %8d\n",
			p.Nodes, ph.P1, ph.P12, ph.P123, ph.Total, ph.MaxRounds)
		events += p.Events
		failed.checkPoint(p, "fig 5.5 mesh at %d nodes", p.Nodes)
	}
	snaps = append(snaps, mesh.Metrics)
	fmt.Println("\nhypercube topology (the dissemination phase grows with the diameter):")
	fmt.Printf("%6s %12s %12s %12s %8s\n", "nodes", "P1", "P1,2", "total", "rounds")
	cube := flashfc.RunCampaign(ccfg, flashfc.Fig55Campaign{Nodes: nodes, Topo: flashfc.TopoHypercube, Routing: cf.Routing})
	for _, p := range cube.Values() {
		ph := p.Phases
		fmt.Printf("%6d %12v %12v %12v %8d\n", p.Nodes, ph.P1, ph.P12, ph.Total, ph.MaxRounds)
		events += p.Events
		failed.checkPoint(p, "fig 5.5 hypercube at %d nodes", p.Nodes)
	}
	snaps = append(snaps, cube.Metrics)
	cliflags.FinishSinks(finish)
	throughput(events, start)
	emitSweepMetrics(snaps, cf.Metrics)
	return failed
}

// emitSweepMetrics prints the merged metric registry of a whole sweep.
func emitSweepMetrics(snaps []*flashfc.MetricsSnapshot, show bool) {
	if !show {
		return
	}
	fmt.Println("\nmetrics (sweep aggregate):")
	flashfc.MergeMetrics(snaps).WriteTable(os.Stdout)
}

func fig56(cf *cliflags.Flags) (failed failures) {
	start := time.Now()
	fmt.Println("Fig 5.6 — cache coherence protocol recovery times (4 nodes)")
	fmt.Println("\nleft: vs second-level cache size (4 MB/node memory):")
	fmt.Printf("%10s %12s %12s\n", "L2 [MB]", "WB (flush)", "P4 total")
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	var events uint64
	var snaps []*flashfc.MetricsSnapshot
	l2 := flashfc.RunCampaign(ccfg, flashfc.Fig56L2Campaign{
		L2Sizes: []uint64{512 << 10, 1 << 20, 2 << 20, 4 << 20},
		Routing: cf.Routing,
	})
	for _, p := range l2.Values() {
		ph := p.Phases
		fmt.Printf("%10.1f %12v %12v\n", p.X, ph.WB, ph.P4Time())
		events += p.Events
		failed.checkPoint(p, "fig 5.6 at %.1f MB L2", p.X)
	}
	snaps = append(snaps, l2.Metrics)
	fmt.Println("\nright: vs node memory size (1 MB L2):")
	fmt.Printf("%10s %12s %12s\n", "mem [MB]", "scan", "P4 total")
	mem := flashfc.RunCampaign(ccfg, flashfc.Fig56MemCampaign{
		MemSizes: []uint64{1 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20},
		Routing:  cf.Routing,
	})
	for _, p := range mem.Values() {
		ph := p.Phases
		fmt.Printf("%10.0f %12v %12v\n", p.X, ph.Scan, ph.P4Time())
		events += p.Events
		failed.checkPoint(p, "fig 5.6 at %.0f MB memory", p.X)
	}
	snaps = append(snaps, mem.Metrics)
	cliflags.FinishSinks(finish)
	throughput(events, start)
	emitSweepMetrics(snaps, cf.Metrics)
	return failed
}

func fig57(cf *cliflags.Flags, full bool) (failed failures) {
	mem := uint64(2 << 20)
	l2 := uint64(256 << 10)
	if full {
		mem = 16 << 20
		l2 = 1 << 20
	}
	fmt.Printf("Fig 5.7 — end-to-end recovery times (1 Hive cell/node, %d MB/node, %d KB L2)\n\n",
		mem>>20, l2>>10)
	fmt.Printf("%6s %14s %14s\n", "nodes", "HW", "HW+OS")
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	out := flashfc.RunCampaign(ccfg, flashfc.Fig57Campaign{
		Nodes: []int{2, 4, 8, 16}, MemBytes: mem, L2Bytes: l2,
	})
	cliflags.FinishSinks(finish)
	for _, p := range out.Values() {
		status := ""
		if !p.OK {
			status = "  (run failed)"
		}
		fmt.Printf("%6d %14v %14v%s\n", p.Nodes, p.HW, p.HWOS, status)
		failed.check(p.OK, "fig 5.7 at %d nodes", p.Nodes)
	}
	fmt.Println("\npaper: OS recovery scales with cells rather than nodes (§5.3)")
	return failed
}

func dist(cf *cliflags.Flags) (failed failures) {
	fmt.Printf("Recovery-time distributions (node failures at random workload points, %d seeds)\n", cf.Runs)
	fmt.Println()
	fmt.Printf("%6s %28s %28s\n", "nodes", "P2 ms (min/med/max)", "total ms (min/med/max)")
	var stats flashfc.CampaignStats
	var snaps []*flashfc.MetricsSnapshot
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	for _, n := range []int{8, 32, 64} {
		scfg := flashfc.DefaultScalingConfig(n)
		scfg.Routing = cf.Routing
		out := flashfc.RunCampaign(ccfg, flashfc.DistributionCampaign{Config: scfg})
		d := flashfc.SummarizeRecovery(n, out)
		for i, r := range out.Runs {
			if r.Err != nil {
				failed.check(false, "dist at %d nodes, run %d", n, i)
				continue
			}
			failed.checkPoint(r.Value, "dist at %d nodes, run %d", n, i)
		}
		fmt.Printf("%6d %12.2f /%6.2f /%6.2f %12.2f /%6.2f /%6.2f\n",
			n, d.P2.Min, d.P2.Median, d.P2.Max, d.Total.Min, d.Total.Median, d.Total.Max)
		stats.Merge(d.Stats)
		snaps = append(snaps, d.Metrics)
	}
	cliflags.FinishSinks(finish)
	fmt.Printf("\nthroughput: %v\n", stats)
	emitSweepMetrics(snaps, cf.Metrics)
	return failed
}

// throughput prints the sweep's aggregate simulated-event rate.
func throughput(events uint64, start time.Time) {
	wall := time.Since(start)
	fmt.Printf("\nthroughput: %d simulated events in %v, %.2f Mevents/s\n",
		events, wall.Round(time.Millisecond), float64(events)/wall.Seconds()/1e6)
}

func ablations(seed int64) (failed failures) {
	fmt.Println("Ablations")
	fmt.Println("\n§4.2 speculative pings (recovery-triggering latency, 32 nodes):")
	with, pWith := flashfc.TriggerLatency(32, true, seed)
	without, pWithout := flashfc.TriggerLatency(32, false, seed)
	failed.checkPoint(pWith, "ablations §4.2 with speculative pings")
	failed.checkPoint(pWithout, "ablations §4.2 without speculative pings")
	fmt.Printf("  with:    %v\n  without: %v\n  speedup: %.1fx (paper: ~5x)\n",
		with, without, float64(without)/float64(with))

	fmt.Println("\n§4.3 BFT-hint scheduling (dissemination time, 32 nodes):")
	on, off := true, false
	cfgOn := flashfc.DefaultScalingConfig(32)
	cfgOn.BFTHints = &on
	cfgOff := flashfc.DefaultScalingConfig(32)
	cfgOff.BFTHints = &off
	pOn := flashfc.MeasureRecovery(cfgOn)
	pOff := flashfc.MeasureRecovery(cfgOff)
	fmt.Printf("  with hints:    %v\n  without hints: %v\n",
		pOn.Phases.P2Time(), pOff.Phases.P2Time())
	failed.checkPoint(pOn, "ablations §4.3 with hints")
	failed.checkPoint(pOff, "ablations §4.3 without hints")

	fmt.Println("\n§5.3 uncached-instruction timing (total recovery, 8 nodes):")
	simos := singleFault(&failed, "ablations §5.3 at SimOS timing", seed, func(*flashfc.MachineConfig) {})
	rtl := singleFault(&failed, "ablations §5.3 at RTL timing", seed, func(c *flashfc.MachineConfig) {
		c.Recovery.UncachedInstr = timing.UncachedInstrRTL
	})
	fmt.Printf("  SimOS %v/instr: %v\n  RTL %v/instr:   %v\n",
		timing.UncachedInstrSimOS, simos.Total, timing.UncachedInstrRTL, rtl.Total)

	fmt.Println("\n§6.2 firewall cost (intercell write miss latency):")
	offLat := flashfc.FirewallLatency(false, seed)
	onLat := flashfc.FirewallLatency(true, seed)
	fmt.Printf("  firewall off: %v\n  firewall on:  %v\n  increase: %.1f%% (paper: <7%%)\n",
		offLat, onLat, 100*(float64(onLat-offLat)/float64(offLat)))

	fmt.Println("\n§6.3 HAL-style reliable interconnect (flush-free P4, 8 nodes):")
	reliable := singleFault(&failed, "ablations §6.3 flush-free", seed, func(c *flashfc.MachineConfig) {
		c.ReliableInterconnect = true
	})
	fmt.Printf("  flushed P4:    %v\n  flush-free P4: %v\n", simos.P4Time(), reliable.P4Time())

	fmt.Println("\n§6.2 hardwired controller (minimum-support P4, 8 nodes):")
	hardwired := singleFault(&failed, "ablations §6.2 hardwired", seed, func(c *flashfc.MachineConfig) {
		c.Recovery.HardwiredController = true
	})
	fmt.Printf("  programmable:  %v\n  hardwired:     %v\n", simos.P4Time(), hardwired.P4Time())
	return failed
}

// singleFault runs the §5.3/§6 ablations' faulted run on the machine that
// set adjusts (experiments.SingleFault) and returns its phase times, naming
// point in failed when it did not recover or failed the judge.
func singleFault(failed *failures, point string, seed int64, set func(*flashfc.MachineConfig)) flashfc.PhaseTimes {
	p := experiments.SingleFault(seed, set)
	failed.checkPoint(p, "%s", point)
	return p.Phases
}
