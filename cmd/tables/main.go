// Command tables regenerates the paper's experiment tables.
//
//	tables -table 5.3 [-runs 200] [-seed 1] [-workers N]
//	tables -table 5.4 [-runs 1187] [-legacy-bug] [-seed 1] [-workers N]
//	tables -table tail [-runs 1000] [-seed 1] [-workers N]
//	tables -table tail -full -run-log runs.jsonl -progress -exemplars out/
//	tables -table routing [-runs 100] [-seed 1] [-workers N]
//
// Table 5.3 (validation): stand-alone cache-fill runs per fault type; the
// paper reports 200 runs per type with zero failures.
//
// Table 5.4 (end-to-end): Hive parallel-make runs per fault type; the paper
// reports 1187 runs with 99 failures (8.4%), all caused by OS bugs in the
// handling of incoherent lines — reenable them with -legacy-bug.
//
// Table tail (containment-time tail): warm-forked validation runs of the
// degradation fault classes — transient-link, fail-slow, CPU-fail/memory-
// survives — reduced to p50/p99/p999 containment time plus the fraction of
// the machine each fault cost. A p999 printed with a trailing * rests on
// interpolation rather than a real observation (run count too small); use
// -full (1000 runs per scenario) for a supported tail.
//
// Each table is a sequence of campaigns, one per fault type, run through
// the Campaign API: runs within a campaign are independent simulations,
// fanned out over -workers goroutines (default: one per CPU) with
// bit-identical results, and each table ends with the aggregate
// simulated-event throughput. -metrics appends the campaign's aggregate
// metric registry (every run's machine-wide snapshot, merged).
//
// Table routing (head-to-head strategies): every registered recovery
// routing strategy replays the identical warm-forked fault sequences —
// single-link, router, and multi-link scenarios — and the table compares
// recovery time, the P3 (reroute) share, packets lost, post-recovery verify
// throughput, and deadlock freedom (CDG acyclicity of the installed
// tables). The 5.3/5.4/tail tables instead honor -routing NAME to run one
// strategy everywhere.
//
// -run-log streams one JSONL record per run (ordered by run index,
// byte-identical at any -workers setting; the routing table
// emits one batch per scenario and strategy, run i of every strategy
// carrying the same seed), -progress reports live campaign progress on
// stderr, and -exemplars DIR (-table tail only) replays the exact runs
// behind the tail table's p50/p99/p999 with span tracing and writes one
// Perfetto-loadable trace per distinct run plus a critical-path summary per
// percentile into DIR.
package main

import (
	"flag"
	"fmt"
	"os"

	"flashfc"
	"flashfc/internal/cliflags"
	"flashfc/internal/stats"
)

func main() {
	table := flag.String("table", "5.3", "table to regenerate: 5.3, 5.4, tail, or routing")
	legacy := flag.Bool("legacy-bug", false, "reenable the paper's incoherent-line OS bugs (5.4)")
	full := flag.Bool("full", false, "paper-scale run counts (200/type for 5.3; ~300/type for 5.4)")
	exemplars := flag.String("exemplars", "", "with -table tail, replay the runs behind the percentiles with tracing and write Perfetto traces + summaries into `dir`")
	cf := cliflags.Register(flag.CommandLine, cliflags.Defaults{Runs: 0})
	flag.Parse()
	if *exemplars != "" && *table != "tail" {
		fmt.Fprintf(os.Stderr, "-exemplars replays the percentiles of -table tail; -table %s has none\n", *table)
		os.Exit(2)
	}
	cf.WarnTraceIgnored()
	cf.Check()
	// Profiles are flushed on the normal return path; a failing campaign
	// exits without them.
	defer cf.StartProfiles()()

	switch *table {
	case "5.3":
		if cf.Runs == 0 {
			cf.Runs = 20
			if *full {
				cf.Runs = 200
			}
		}
		table53(cf)
	case "5.4":
		if cf.Runs == 0 {
			cf.Runs = 10
			if *full {
				cf.Runs = 300
			}
		}
		table54(cf, *legacy)
	case "tail":
		if cf.Runs == 0 {
			cf.Runs = 50
			if *full {
				cf.Runs = flashfc.DefaultTailRuns
			}
		}
		tableTail(cf, *exemplars)
	case "routing":
		if cf.Runs == 0 {
			cf.Runs = 25
			if *full {
				cf.Runs = flashfc.DefaultRoutingConfig().Runs
			}
		}
		tableRouting(cf)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
}

func table53(cf *cliflags.Flags) {
	fmt.Printf("Table 5.3 — validation experiments (%d runs per fault type)\n\n", cf.Runs)
	fmt.Printf("%-38s %12s %12s\n", "Injected fault type", "# of exp.", "# failed")
	vcfg := flashfc.DefaultValidationConfig()
	vcfg.Routing = cf.Routing
	names := map[flashfc.FaultType]string{
		flashfc.NodeFailure:   "Node failure",
		flashfc.RouterFailure: "Router failure",
		flashfc.LinkFailure:   "Link failure",
		flashfc.InfiniteLoop:  "Infinite loop in MAGIC handler",
		flashfc.FalseAlarm:    "Recovery triggered by false alarm",
	}
	bad := 0
	var total flashfc.CampaignStats
	var snaps []*flashfc.MetricsSnapshot
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	for _, ft := range flashfc.AllFaultTypes() {
		out := flashfc.RunCampaign(ccfg, flashfc.ValidationCampaign{Config: vcfg, Fault: ft})
		failed := 0
		for _, r := range out.Runs {
			if r.Err != nil || !r.Value.OK() {
				failed++
			}
		}
		fmt.Printf("%-38s %12d %12d\n", names[ft], len(out.Runs), failed)
		bad += failed
		total.Merge(out.Stats)
		snaps = append(snaps, out.Metrics)
	}
	cliflags.FinishSinks(finish)
	fmt.Printf("\npaper: 200 runs per type, 0 failures; this run: %d total failures\n", bad)
	fmt.Printf("throughput: %v\n", total)
	emitCampaignMetrics(snaps, cf.Metrics)
	if bad > 0 {
		os.Exit(1)
	}
}

// tableTail runs the containment-time tail campaign over the degradation
// fault classes and renders the percentile table.
func tableTail(cf *cliflags.Flags, exemplars string) {
	fmt.Printf("Containment-time tail — degradation fault classes (%d runs per scenario)\n\n", cf.Runs)
	cfg := flashfc.DefaultTailConfig()
	cfg.Routing = cf.Routing
	cfg.Runs = cf.Runs
	cfg.Workers = cf.Workers
	sink, finish := cf.Sinks()
	cfg.Observe = sink
	res := flashfc.RunTailCampaign(cfg, cf.Seed)
	cliflags.FinishSinks(finish)
	t := stats.NewTable("Fault scenario", "runs", "failed", "p50", "p99", "p999", "affected")
	bad := 0
	interp := false
	for _, sc := range res.Scenarios {
		p999 := sc.P999.String()
		if !sc.TailOK {
			p999 += " *"
			interp = true
		}
		t.AddRow(sc.Fault.String(), fmt.Sprint(sc.Runs), fmt.Sprint(sc.Failed),
			sc.P50.String(), sc.P99.String(), p999,
			fmt.Sprintf("%.1f%% of machine", 100*sc.Affected.Mean))
		bad += sc.Failed
	}
	fmt.Print(t)
	if interp {
		fmt.Println("\n* p999 interpolated, not supported by a real observation; rerun with -full")
	}
	fmt.Printf("\nthroughput: %v\n", res.Stats)
	if exemplars != "" {
		writeExemplars(exemplars, cfg, cf.Seed, res)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// writeExemplars replays the exact runs behind each scenario's percentiles
// with span tracing (bit-identical by the determinism contract) and writes
// Perfetto-loadable trace files, one per distinct run, plus a critical-path
// summary per percentile into dir. A traced containment time that differs
// from the campaign's recorded observation means the replay contract is
// broken — that is a hard failure, not a warning.
func writeExemplars(dir string, cfg flashfc.TailConfig, seed int64, res *flashfc.TailResult) {
	fmt.Printf("\nexemplars (replayed with tracing into %s):\n", dir)
	es := flashfc.ReplayTailExemplars(cfg, seed, res)
	mismatch := false
	for _, e := range es {
		fmt.Printf("  %v\n", e)
		if !e.Match() {
			mismatch = true
		}
	}
	if err := flashfc.WriteExemplars(dir, es); err != nil {
		fmt.Fprintf(os.Stderr, "exemplars: %v\n", err)
		os.Exit(1)
	}
	if mismatch {
		fmt.Fprintln(os.Stderr, "exemplars: traced containment time diverged from the campaign observation — determinism contract broken")
		os.Exit(1)
	}
}

// emitCampaignMetrics prints the merged metric registry of a whole table
// (the per-fault-type campaign aggregates, merged again across types).
func emitCampaignMetrics(snaps []*flashfc.MetricsSnapshot, show bool) {
	if !show {
		return
	}
	fmt.Println("\nmetrics (campaign aggregate):")
	flashfc.MergeMetrics(snaps).WriteTable(os.Stdout)
}

// tableRouting runs the head-to-head strategy campaign: every registered
// routing strategy replays the identical fault sequences per scenario, so
// rows within a scenario are directly comparable.
func tableRouting(cf *cliflags.Flags) {
	fmt.Printf("Routing strategies head-to-head (%d runs per scenario per strategy)\n\n", cf.Runs)
	cfg := flashfc.DefaultRoutingConfig()
	cfg.Routing = "" // strategies come from the campaign's own sweep
	cfg.Runs = cf.Runs
	cfg.Workers = cf.Workers
	sink, finish := cf.Sinks()
	cfg.Observe = sink
	res := flashfc.RunRoutingCampaign(cfg, cf.Seed)
	cliflags.FinishSinks(finish)
	bad, cyclic := 0, 0
	for _, sc := range res.Scenarios {
		fmt.Printf("scenario: %s\n", sc.Spec.Name)
		t := stats.NewTable("Strategy", "runs", "failed", "deadlock", "rec p50", "rec p99", "P3 p50", "lost", "thr p50")
		for _, c := range sc.Cells {
			dl := "none"
			if c.Deadlocks > 0 {
				dl = fmt.Sprintf("%d CYCLIC", c.Deadlocks)
			}
			t.AddRow(c.Strategy, fmt.Sprint(c.Runs), fmt.Sprint(c.Failed), dl,
				c.RecoveryP50.String(), c.RecoveryP99.String(), c.P3P50.String(),
				fmt.Sprintf("%.1f", c.LostMean),
				fmt.Sprintf("%.0f lines/ms", c.ThroughputP50))
			bad += c.Failed
			cyclic += c.Deadlocks
		}
		fmt.Print(t)
		fmt.Println()
	}
	fmt.Printf("throughput: %v\n", res.Stats)
	if cyclic > 0 {
		fmt.Fprintf(os.Stderr, "routing: %d runs installed cyclic tables (deadlock possible)\n", cyclic)
		os.Exit(1)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func table54(cf *cliflags.Flags, legacy bool) {
	mode := "fixed OS"
	if legacy {
		mode = "legacy OS bugs reenabled"
	}
	fmt.Printf("Table 5.4 — end-to-end recovery experiments (%d runs per fault type, %s)\n\n", cf.Runs, mode)
	fmt.Printf("%-38s %12s %12s\n", "Injected fault type", "# of exp.", "# failed")
	ecfg := flashfc.DefaultEndToEndConfig()
	ecfg.LegacyIncoherentBug = legacy
	ecfg.Routing = cf.Routing
	types := []flashfc.FaultType{
		flashfc.NodeFailure, flashfc.RouterFailure, flashfc.LinkFailure, flashfc.InfiniteLoop,
	}
	names := map[flashfc.FaultType]string{
		flashfc.NodeFailure:   "Node failure",
		flashfc.RouterFailure: "Router failure",
		flashfc.LinkFailure:   "Link failure",
		flashfc.InfiniteLoop:  "Infinite loop in MAGIC handler",
	}
	total, failed := 0, 0
	var stats flashfc.CampaignStats
	var snaps []*flashfc.MetricsSnapshot
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	for _, ft := range types {
		out := flashfc.RunCampaign(ccfg, flashfc.EndToEndCampaign{Config: ecfg, Fault: ft})
		bad := 0
		for _, r := range out.Runs {
			if r.Err != nil || !r.Value.OK() {
				bad++
			}
		}
		fmt.Printf("%-38s %12d %12d\n", names[ft], len(out.Runs), bad)
		total += len(out.Runs)
		failed += bad
		stats.Merge(out.Stats)
		snaps = append(snaps, out.Metrics)
	}
	cliflags.FinishSinks(finish)
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(total-failed) / float64(total)
	}
	fmt.Printf("%-38s %12d %12d\n", "Total", total, failed)
	fmt.Printf("\n%.1f%% of runs correctly finished the compiles not affected by the fault\n", pct)
	fmt.Println("paper: 1187 runs, 99 failed (91.6% success), all failures caused by OS bugs")
	fmt.Printf("throughput: %v\n", stats)
	emitCampaignMetrics(snaps, cf.Metrics)
}
