// Command flashsim runs one interactive fault-injection experiment on a
// simulated FLASH machine and reports what happened.
//
//	flashsim -nodes 16 -fault node
//	flashsim -nodes 8 -fault loop -mem 1048576 -l2 1048576 -trace
//	flashsim -nodes 16 -fault powerloss        (§4.1 compound fault)
//	flashsim -nodes 16 -fault cablecut
//	flashsim -nodes 16 -fault transient-link   (degradation classes: healing
//	flashsim -nodes 16 -fault fail-slow         link, slow MAGIC engine,
//	flashsim -nodes 16 -fault cpu-fail          CPU dies but memory survives)
//	flashsim -fault router -runs 100 -parallel 8   (multi-seed campaign)
//	flashsim -fault link -routing incremental      (alternate recovery routing)
//	flashsim -nodes 4 -fault node -metrics-json | jq .counters
//	flashsim -nodes 4 -fault node -trace-json trace.json   (Perfetto spans)
//	flashsim -nodes 4 -fault node -trace-critical          (latency budget)
//
// The run fills the caches with the §5.2 validation workload, injects the
// fault mid-fill, executes the recovery algorithm, verifies all of memory
// against the oracle, and prints the per-phase breakdown. With -runs N
// (N > 1) flashsim instead runs a campaign of N independent experiments
// with seeds derived from -seed, fanned out over -parallel workers
// (0 = one per CPU), and reports pass/fail counts plus simulated-event
// throughput. A single run is run 0 of that campaign: the same warm-up, then
// a fork at run 0's derived seed, so `flashsim -seed S` and `flashsim -runs
// N -seed S -run-seed 0` are one computation. Campaigns stream per-run JSONL
// records with -run-log and a live stderr progress line with -progress;
// -trace applies to single runs, and -run-seed <i> runs exactly campaign
// run i (same derived seed and warm fork as run i of the -runs N campaign):
//
//	flashsim -fault fail-slow -runs 1000 -run-log runs.jsonl -progress
//	flashsim -fault fail-slow -runs 1000 -run-seed 837 -trace-critical
//
// A size the simulator cannot run (-nodes below 2, -mem that is not a
// positive multiple of the 128-byte line, -fill below 0, -stride below 1)
// exits 2 naming the flag.
//
// The single-scenario faults (powerloss, cablecut, none, boundary-link) run
// once at -seed. -partitions N and -region-extra D, which only flashsim
// registers, run -fault none|boundary-link on N region workers of a
// partitioned machine. A flag the chosen mode never reads exits 2 naming
// it, as tables and figures do: campaign flags on a single scenario or a
// single run, -partitions and -region-extra on a validation run, and the
// trace flags on a campaign.
//
// -metrics prints the machine-wide metric registry after the run (merged
// across runs in campaign mode, plus per-run distributions). -metrics-json
// emits the same snapshot as stable-key JSON alone on stdout — the human
// report moves to stderr — so the output pipes into jq and is byte-identical
// for a fixed seed regardless of -parallel.
//
// -trace-json writes the recovery's span tree (per-node phases, gossip
// rounds, drain/τ agreement, flush and scan chunks) plus packet and MAGIC
// point events as Chrome trace-event JSON, loadable at ui.perfetto.dev;
// packet points stop once recovery completes, so the verify sweep is not
// traced;
// the bytes are deterministic for a fixed seed regardless of -parallel.
// -trace-critical prints the recovery's critical path: the span chain that
// explains the latency, with per-step self-times summing exactly to the
// recovery duration and the dominant step named. Like -trace, both apply
// to single runs only; a campaign refuses them, naming -run-log and
// -run-seed instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"flashfc"
	"flashfc/internal/cliflags"
	"flashfc/internal/timing"
)

// hout is where the human-readable report goes: stdout normally, stderr
// under -metrics-json so that stdout carries only the JSON snapshot.
var hout io.Writer = os.Stdout

// stopProfiles flushes any -cpuprofile/-memprofile output; exit routes
// every termination through it so profiles survive error paths too.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func main() {
	nodes := flag.Int("nodes", 8, "number of nodes")
	faultName := flag.String("fault", "node",
		"fault: node, router, link, loop, false-alarm, transient-link, fail-slow, cpu-fail, powerloss, cablecut, boundary-link, none")
	mem := flag.Uint64("mem", 256<<10, "memory bytes per node")
	l2 := flag.Uint64("l2", 64<<10, "L2 cache bytes")
	fill := flag.Int("fill", 192, "cache-fill lines per node")
	stride := flag.Int("stride", 1, "verification stride (1 = every line)")
	runSeed := flag.Int("run-seed", -1, "trace exactly campaign run `i` (same derived seed as run i of the -runs N campaign); -1 = off")
	partitions := flag.Int("partitions", 0, "intra-machine region workers of -fault none|boundary-link (0 = sequential engine; bit-identical at any value > 0)")
	regionExtra := flag.Int64("region-extra", 0, "extra inter-region wire latency in `ns` for -fault none|boundary-link (0 = default)")
	cf := cliflags.Register(flag.CommandLine, cliflags.Defaults{Runs: 1})
	flag.Parse()
	stopProfiles = cf.StartProfiles()
	defer stopProfiles()

	if cf.MetricsJSON {
		hout = os.Stderr
	}

	cf.Check()
	checkSizes(*nodes, *mem, *l2, *fill, *stride)
	if *faultName == "boundary-link" && *partitions <= 0 {
		fmt.Fprintln(os.Stderr, "-fault boundary-link needs -partitions N (N > 0): it fails a link on a region boundary, and only a partitioned machine has regions")
		exit(2)
	}
	cfg := flashfc.DefaultValidationConfig()
	cfg.Routing = cf.Routing
	cfg.Nodes = *nodes
	cfg.MemBytes = *mem
	cfg.L2Bytes = *l2
	cfg.FillLines = *fill
	cfg.Stride = *stride
	mode, what := "run", fmt.Sprintf("a single -fault %s run", *faultName)
	ft, validation := validationFaults[*faultName]
	switch *faultName {
	case "powerloss", "cablecut":
		mode, what = "compound", "-fault "+*faultName
	case "none", "boundary-link":
		mode, what = "partitioned", "-fault "+*faultName
	default:
		if !validation {
			fmt.Fprintf(os.Stderr, "unknown fault %q\n", *faultName)
			exit(2)
		}
		if cf.Runs > 1 && *runSeed < 0 {
			mode, what = "campaign", fmt.Sprintf("a -fault %s campaign", *faultName)
		}
	}
	cf.RejectIgnored(what, ignored[mode]...)
	if cf.WantTrace() {
		cfg.Trace = flashfc.NewTracer()
	}
	topts := traceOpts{tracer: cfg.Trace, dump: cf.Trace, jsonPath: cf.TraceJSON, critical: cf.TraceCritical}

	switch mode {
	case "compound":
		runCompound(cfg, *faultName, cf.Seed, topts, cf.Metrics, cf.MetricsJSON)
	case "partitioned":
		warnOversubscribed(*partitions)
		runPartition(cfg, *faultName, *fill, *partitions, *regionExtra, cf, topts)
	case "campaign":
		runCampaign(cfg, ft, *faultName, cf)
	default:
		runReplay(cfg, ft, *faultName, max(*runSeed, 0), cf, topts)
	}
}

// validationFaults maps the -fault names of the validation classes, which
// run as campaigns or as one campaign run, to their fault types.
var validationFaults = map[string]flashfc.FaultType{
	"node":           flashfc.NodeFailure,
	"router":         flashfc.RouterFailure,
	"link":           flashfc.LinkFailure,
	"loop":           flashfc.InfiniteLoop,
	"false-alarm":    flashfc.FalseAlarm,
	"transient-link": flashfc.TransientLink,
	"fail-slow":      flashfc.FailSlow,
	"cpu-fail":       flashfc.CPUFail,
}

// ignored lists, per mode, the flags it never reads; RejectIgnored refuses
// them. The single scenarios run once at -seed and write no run records:
// the compound faults touch memory without a fill on a sequential machine,
// and the partitioned fill and boundary-link fault pick their own verify
// stride and recover with the paper's routing. Every validation run forks
// a sequential machine's warm snapshot, so the partitioned engine never
// runs; a single run writes no run records, and a campaign's interleaved
// timelines trace nothing.
var ignored = map[string][]string{
	"compound":    {"runs", "run-seed", "run-log", "run-log-host", "progress", "fill", "partitions", "region-extra"},
	"partitioned": {"runs", "run-seed", "run-log", "run-log-host", "progress", "stride", "routing"},
	"run":         {"run-log", "run-log-host", "progress", "partitions", "region-extra"},
	"campaign":    append([]string{"partitions", "region-extra"}, cliflags.TraceFlags...),
}

// checkSizes exits 2, naming the flag, on a machine or workload size the
// simulator cannot run: fewer than two nodes leaves no survivor to recover,
// memory and cache must be whole coherence lines, and the fill and verify
// stride count lines.
func checkSizes(nodes int, mem, l2 uint64, fill, stride int) {
	var bad string
	switch {
	case nodes < 2:
		bad = fmt.Sprintf("-nodes %d: need at least 2 (a victim and a survivor)", nodes)
	case mem == 0 || mem%timing.LineSize != 0:
		bad = fmt.Sprintf("-mem %d: must be a positive multiple of the %d-byte line", mem, timing.LineSize)
	case l2 == 0 || l2%timing.LineSize != 0:
		bad = fmt.Sprintf("-l2 %d: must be a positive multiple of the %d-byte line", l2, timing.LineSize)
	case fill < 0:
		bad = fmt.Sprintf("-fill %d: must be 0 or more", fill)
	case stride < 1:
		bad = fmt.Sprintf("-stride %d: must be 1 or more", stride)
	default:
		return
	}
	fmt.Fprintln(os.Stderr, "invalid "+bad)
	exit(2)
}

// warnOversubscribed prints a warning when -partitions exceeds the host's
// scheduler width. Oversubscribing is correct (results never depend on
// worker counts) but slower.
func warnOversubscribed(partitions int) {
	if partitions > runtime.GOMAXPROCS(0) {
		fmt.Fprintf(os.Stderr,
			"warning: -partitions %d exceeds GOMAXPROCS %d; results are identical but oversubscription costs speed\n",
			partitions, runtime.GOMAXPROCS(0))
	}
}

// traceOpts bundles the trace output configuration for one run.
type traceOpts struct {
	tracer   *flashfc.Tracer
	dump     bool   // -trace: human timeline
	jsonPath string // -trace-json: Chrome trace-event file
	critical bool   // -trace-critical: critical-path report
}

// emitTrace writes the structured trace outputs: the Chrome trace-event
// JSON file and/or the critical-path report on the human stream.
func emitTrace(o traceOpts) {
	if o.tracer == nil {
		return
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-json: %v\n", err)
			exit(1)
		}
		werr := o.tracer.WriteChromeJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "trace-json: %v\n", werr)
			exit(1)
		}
		fmt.Fprintf(hout, "trace:      wrote %s (open at https://ui.perfetto.dev or chrome://tracing)\n", o.jsonPath)
	}
	if o.critical {
		o.tracer.WriteCriticalReport(hout)
	}
}

// emitMetrics prints the snapshot per the output flags: a sorted table on
// the human stream for -metrics, stable-key JSON alone on stdout for
// -metrics-json.
func emitMetrics(snap *flashfc.MetricsSnapshot, table, asJSON bool) {
	if snap == nil {
		return
	}
	if table {
		fmt.Fprintln(hout, "metrics:")
		snap.WriteTable(hout)
	}
	if asJSON {
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			exit(1)
		}
	}
}

// runReplay executes one validation run: campaign run i of the -runs N
// campaign (i is -run-seed, or 0 without it). It is the same derived seed
// and the same warm fork the campaign executes for that run, so a single
// run, the traced replay and the campaign's run agree — containment time,
// verify outcome and all.
func runReplay(cfg flashfc.ValidationConfig, ft flashfc.FaultType, name string, i int, cf *cliflags.Flags, topts traceOpts) {
	e := flashfc.ReplayValidationRun(cfg, ft, cf.Seed, i)
	r := e.Result
	fmt.Fprintf(hout, "run:        %s campaign run %d (base seed %d, derived seed %d)\n",
		name, i, cf.Seed, e.Seed)
	if topts.tracer != nil && topts.dump {
		fmt.Fprintln(hout, "timeline:")
		topts.tracer.Dump(hout)
		fmt.Fprintln(hout)
	}
	fmt.Fprintf(hout, "fault:      %v\n", r.Fault)
	fmt.Fprintf(hout, "recovered:  %v\n", r.Recovered)
	if r.Recovered {
		p := r.Phases
		fmt.Fprintf(hout, "phases:     P1=%v  P1,2=%v  P1,2,3=%v  total=%v\n", p.P1, p.P12, p.P123, p.Total)
		fmt.Fprintf(hout, "            flush=%v  directory sweep=%v  gossip rounds=%d\n", p.WB, p.Scan, p.MaxRounds)
		fmt.Fprintf(hout, "verify:     %v\n", r.Verify)
	}
	emitTrace(topts)
	emitMetrics(r.Metrics, cf.Metrics, cf.MetricsJSON)
	if r.OK() {
		fmt.Fprintln(hout, "result:     PASS — fault contained, no data anomalies")
		return
	}
	fmt.Fprintf(hout, "result:     FAIL — %s\n", r.Note)
	exit(1)
}

// runCampaign fans the validation experiments out over the configured
// worker pool via the Campaign API and reports the campaign verdict.
func runCampaign(cfg flashfc.ValidationConfig, ft flashfc.FaultType, name string, cf *cliflags.Flags) {
	fmt.Fprintf(hout, "campaign: %d %s-fault runs, base seed %d\n", cf.Runs, name, cf.Seed)
	sink, finish := cf.Sinks()
	ccfg := cf.Config()
	ccfg.Observe = sink
	out := flashfc.RunCampaign(ccfg, flashfc.ValidationCampaign{Config: cfg, Fault: ft})
	if err := finish(); err != nil {
		fmt.Fprintf(os.Stderr, "run-log: %v\n", err)
		exit(1)
	}
	failed := 0
	var snaps []*flashfc.MetricsSnapshot
	for i, r := range out.Runs {
		switch {
		case r.Err != nil:
			failed++
			fmt.Fprintf(hout, "run %4d: CRASH — %v\n", i, r.Err)
		case !r.Value.OK():
			failed++
			fmt.Fprintf(hout, "run %4d: FAIL — %s (fault %v)\n", i, r.Value.Note, r.Value.Fault)
		}
		if r.Err == nil {
			snaps = append(snaps, r.Value.Metrics)
		}
	}
	if cf.Metrics {
		fmt.Fprintln(hout, "metrics (campaign aggregate):")
		out.Metrics.WriteTable(hout)
		fmt.Fprintln(hout, "metrics (per-run distributions):")
		flashfc.WriteMetricsSummary(hout, flashfc.SummarizeMetrics(snaps))
	}
	if cf.MetricsJSON {
		if err := out.Metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			exit(1)
		}
	}
	fmt.Fprintf(hout, "throughput: %v\n", out.Stats)
	if failed > 0 {
		fmt.Fprintf(hout, "result:     FAIL — %d/%d runs failed\n", failed, cf.Runs)
		exit(1)
	}
	fmt.Fprintf(hout, "result:     PASS — all %d faults contained, no data anomalies\n", cf.Runs)
}

// runPartition runs the partitioned-simulation scenarios: -fault none is
// the fault-free fill (the scenario the ledger's fill1024/fill1024-p2
// workloads time), and
// -fault boundary-link fails an inter-region link mid-fill and recovers
// across the cut. Both honor -partitions (0 = sequential engine) and are
// bit-identical at any partition count.
func runPartition(vcfg flashfc.ValidationConfig, kind string, fill, partitions int, regionExtra int64, cf *cliflags.Flags, topts traceOpts) {
	cfg := flashfc.DefaultPartitionConfig()
	cfg.Nodes = vcfg.Nodes
	cfg.MemBytes = vcfg.MemBytes
	cfg.L2Bytes = vcfg.L2Bytes
	cfg.OpsPerNode = fill
	cfg.Partitions = partitions
	cfg.RegionLinkExtra = flashfc.Time(regionExtra)
	cfg.Trace = topts.tracer

	if kind == "boundary-link" {
		r := flashfc.RunPartitionBoundaryFault(cfg, cf.Seed)
		fmt.Fprintf(hout, "fault:      %v (inter-region boundary link)\n", r.Fault)
		fmt.Fprintf(hout, "recovered:  %v\n", r.Recovered)
		if r.Recovered {
			p := r.Phases
			fmt.Fprintf(hout, "phases:     P1=%v  P1,2=%v  P1,2,3=%v  total=%v\n", p.P1, p.P12, p.P123, p.Total)
			fmt.Fprintf(hout, "verify:     %v\n", r.Verify)
		}
		emitTrace(topts)
		emitMetrics(r.Metrics, cf.Metrics, cf.MetricsJSON)
		if r.OK() {
			fmt.Fprintln(hout, "result:     PASS — boundary fault contained across the region cut")
			return
		}
		fmt.Fprintf(hout, "result:     FAIL — %s\n", r.Note)
		exit(1)
	}

	r := flashfc.RunPartitionFill(cfg, cf.Seed)
	fmt.Fprintf(hout, "scenario:   %d-node fill, %d regions, %d partition workers\n",
		cfg.Nodes, r.Regions, cfg.Partitions)
	fmt.Fprintf(hout, "workload:   %d/%d accesses completed at t=%v\n", r.Completed, r.Total, r.Now)
	fmt.Fprintf(hout, "engine:     %d events, %d barriers, %d cross-region merges\n",
		r.Events, r.Barriers, r.Merged)
	emitTrace(topts)
	emitMetrics(r.Metrics, cf.Metrics, cf.MetricsJSON)
	if r.OK() {
		fmt.Fprintln(hout, "result:     PASS — fill completed")
		return
	}
	fmt.Fprintf(hout, "result:     FAIL — %s\n", r.Note)
	exit(1)
}

// runCompound injects a §4.1 compound fault (power-supply loss of two
// adjacent nodes, or a cable cut between the first two mesh columns) and
// reports the recovery outcome.
func runCompound(cfg flashfc.ValidationConfig, kind string, seed int64, topts traceOpts, showMetrics, metricsJSON bool) {
	mc := flashfc.DefaultMachineConfig(cfg.Nodes)
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Routing = cfg.Routing
	mc.Trace = topts.tracer
	m := flashfc.NewMachine(mc)
	var fs []flashfc.Fault
	switch kind {
	case "powerloss":
		a := cfg.Nodes / 2
		fs = flashfc.PowerLoss(m, []int{a, a + 1})
	case "cablecut":
		fs = flashfc.CableCut(m, 0)
	}
	fmt.Fprintf(hout, "injecting %d-part compound fault: %v\n", len(fs), fs)
	m.E.At(flashfc.Millisecond, func() { m.InjectAll(fs) })
	m.E.At(flashfc.Millisecond+10*flashfc.Microsecond, func() {
		m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, cfg.Nodes/2))
		if cfg.Nodes > 1 {
			m.Nodes[1].CPU.Submit(flashfc.TouchOp(m, 0))
		}
	})
	ok := m.RunUntilRecovered(10 * flashfc.Second)
	if topts.tracer != nil && topts.dump {
		fmt.Fprintln(hout, "timeline:")
		topts.tracer.Dump(hout)
	}
	fmt.Fprintln(hout, "recovered:", ok)
	emitTrace(topts)
	if !ok {
		emitMetrics(m.MetricsSnapshot(), showMetrics, metricsJSON)
		exit(1)
	}
	pt := m.Aggregate()
	fmt.Fprintf(hout, "phases:     P1=%v  P1,2=%v  P1,2,3=%v  total=%v\n", pt.P1, pt.P12, pt.P123, pt.Total)
	fmt.Fprintf(hout, "survivors:  %d participants, %d restarts\n", pt.Participants, pt.Restarts)
	// Verify from the main surviving component (a partition may have
	// shut down the island containing node 0).
	reader := m.Survivors()[0]
	res := m.VerifyMemory(reader, cfg.Stride)
	fmt.Fprintf(hout, "verify:     %v\n", res)
	emitMetrics(m.MetricsSnapshot(), showMetrics, metricsJSON)
	if !res.OK() {
		fmt.Fprintln(hout, "result:     FAIL")
		exit(1)
	}
	fmt.Fprintln(hout, "result:     PASS — compound fault contained")
}
