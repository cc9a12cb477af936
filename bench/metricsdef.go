package main

// metricDef describes one metric the benchmark prints. Host time has the
// units s, ms and ns; simulated time has the unit sim_ms, so that nothing
// mistakes a number that repeats exactly for a host timing. The table below is
// the benchmark's side of BENCHMARK.json (a test holds the two together) and
// carries what that file's schema has no room for: which end-to-end metric a
// layer metric is expected to move, and on which workloads.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; zero on per-layer metrics, which have none.
	Bound float64
	// Moves names the user-visible metric a per-layer metric should move.
	Moves string
	// On lists the workloads where it should; NotOn the workloads where the
	// prediction is no change.
	On, NotOn []string
	Doc       string
}

var (
	all       = []string{"table53", "tail-sparse", "hive54", "fill1024", "fill1024-p2", "recovery128"}
	forked    = []string{"table53", "tail-sparse"}
	cold      = []string{"hive54", "fill1024", "fill1024-p2", "recovery128"} // no fork, no verify sweep
	fills     = []string{"fill1024", "fill1024-p2"}
	recovers  = []string{"table53", "tail-sparse", "recovery128"}
	notFills  = []string{"table53", "tail-sparse", "hive54", "recovery128"}
	onlyHive  = []string{"hive54"}
	onlyP2    = []string{"fill1024-p2"}
	onlyRec   = []string{"recovery128"}
	onlyTable = []string{"table53"}
	onlyTail  = []string{"tail-sparse"}
	notHive   = without("hive54")
	notP2     = without("fill1024-p2")
	notRec    = without("recovery128")
)

// endToEnd are the metrics a user of the system sees, measured through the
// public façade with tracing off. Host time unless the name says sim.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "input generation plus one untimed warm-up rep; median of five set-ups"},
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "passing runs per host second, from the fastest timed rep; the reps' median and quartiles are printed beside it"},
	{Name: "allocs_per_run", Unit: "count", Better: "lower", Bound: 0.05,
		Doc: "runtime.MemStats.Mallocs over the timed reps, per run"},
	{Name: "alloc_kb_per_run", Unit: "KiB", Better: "lower", Bound: 0.05,
		Doc: "runtime.MemStats.TotalAlloc over the timed reps, per run"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05,
		Doc: "heap in use after a forced collection while the warm snapshots and every finished machine of one rep are held"},
}

// userVisible are the two further numbers a user sees. BENCHMARK.json lists
// them under per_layer because its end-to-end metrics may never read 0 and
// are compared across seeds: failed_share must be 0, and sim_ms_p50 repeats
// exactly at one seed and differs between seeds. -compare holds both to
// exact equality.
var userVisible = []metricDef{
	{Name: "failed_share", Unit: "share", Better: "lower", Moves: "failed_share", On: all,
		Doc: "runs that panicked, did not recover, failed their OK() or failed the replica-fidelity gate, over runs attempted; must be 0"},
	{Name: "sim_ms_p50", Unit: "sim_ms", Better: "lower", Moves: "sim_ms_p50", On: all,
		Doc: "simulated ms, median over runs: PhaseTimes.Total, HW (hive54) or completion Now (fills); a simulator-speed change must not move it"},
}

// phaseDefs come from the spans of the traced run: self time per run, in
// host ms unless they say otherwise.
var phaseDefs = []metricDef{
	{Name: "experiments.warmup_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: forked, NotOn: cold,
		Doc: "WarmupValidation: build, fill and freeze the warm snapshot, once per campaign"},
	{Name: "machine.new_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: cold, NotOn: onlyTable,
		Doc: "machine.New per cold run"},
	{Name: "machine.fork_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyTail, NotOn: onlyHive,
		Doc: "machine.FromSnapshot per forked run"},
	{Name: "machine.run_to_recovered_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: []string{"tail-sparse", "recovery128"}, NotOn: fills,
		Doc: "burst or fill, Inject and RunUntilRecovered"},
	{Name: "machine.verify_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyTable, NotOn: cold,
		Doc: "VerifyMemory, the whole-memory read sweep"},
	{Name: "machine.verify_share", Unit: "share", Better: "lower", Moves: "runs_per_s", On: onlyTable, NotOn: cold,
		Doc: "share of the runs' host time spent inside VerifyMemory"},
	{Name: "machine.verify_ns_per_line", Unit: "ns", Better: "lower", Moves: "allocs_per_run", On: onlyTable, NotOn: cold,
		Doc: "verify host time per line checked"},
	{Name: "machine.metrics_scrape_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "EventsFired and MetricsSnapshot at the end of a run"},
	{Name: "hive.boot_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive, NotOn: notHive,
		Doc: "hive.New and hive.NewMake"},
	{Name: "hive.make_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive, NotOn: notHive,
		Doc: "InjectAt, Make.Start and the event loop until the make is idle and recovered"},
	{Name: "hive.evaluate_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive, NotOn: notHive,
		Doc: "Make.Evaluate"},
	{Name: "workload.fill_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: fills, NotOn: notFills,
		Doc: "PartitionFill.Start and Advance until done"},
	{Name: "machine.ns_per_event", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "host ns inside the event-loop spans (run_to_recovered, verify, hive.make, workload.fill) per event they fired"},
	{Name: "runner.overhead_ms", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "façade rep wall minus the replica's run and warm-up spans, per run: what the campaign layer adds to the bare script"},
	{Name: "runner.run_ms_p50", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "host ms of one run, median over the traced runs"},
	{Name: "runner.run_ms_tail", Unit: "ms", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "host ms of one run at the highest percentile with at least ten samples beyond it"},
	{Name: "runner.run_ms_tail_pct", Unit: "%", Better: "higher", Moves: "runs_per_s", On: onlyHive,
		Doc: "the percentile run_ms_tail reports; 100 means fewer than twenty samples, so the maximum"},
	{Name: "runner.parallel_efficiency", Unit: "share", Better: "higher", Moves: "runs_per_s", On: onlyTail,
		Doc: "one tail-sparse rep at Workers nproc against Workers 1, over nproc; 0 on other workloads"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "traced replica rep wall over untraced façade rep wall, reps alternated"},
}

// exactDefs are simulated statistics per run, from the merged metric
// snapshots. They repeat exactly: a host-speed change moves none of them,
// and -compare holds them to equality at equal seeds.
var exactDefs = []metricDef{
	{Name: "sim.events_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "sim.events_fired"},
	{Name: "sim.heap_compactions_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: recovers,
		Doc: "sim.heap_compactions"},
	{Name: "sim.barriers_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: onlyP2, NotOn: notP2,
		Doc: "sim.barriers: lookahead windows closed"},
	{Name: "sim.cross_region_merged_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: onlyP2, NotOn: notP2,
		Doc: "sim.cross_region_merged: events merged at barriers"},
	{Name: "sim.idle_windows_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: onlyP2, NotOn: notP2,
		Doc: "sum of sim.partition.NN.lookahead_stalls: windows in which a region had nothing to run"},
	{Name: "interconnect.packets_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "packets injected, all lanes"},
	{Name: "interconnect.flits_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "flits injected, all lanes"},
	{Name: "interconnect.recovery_lane_packets_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "packets on the two recovery lanes"},
	{Name: "interconnect.backpressure_stalls_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: all,
		Doc: "interconnect.backpressure_stalls"},
	{Name: "interconnect.lost_packets_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "truncated plus black-holed packets"},
	{Name: "magic.naks_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "magic.naks_sent"},
	{Name: "magic.op_timeouts_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "magic.mem_op_timeouts"},
	{Name: "core.gossip_rounds_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "core.gossip_rounds"},
	{Name: "core.drain_attempts_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "core.drain_attempts"},
	{Name: "core.recovery_restarts_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "core.recovery_restarts"},
	{Name: "core.p1_ms", Unit: "sim_ms", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "simulated P1 duration, mean per recovery"},
	{Name: "core.p2_ms", Unit: "sim_ms", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "simulated P2 duration, mean per recovery"},
	{Name: "core.p3_ms", Unit: "sim_ms", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "simulated P3 duration, mean per recovery"},
	{Name: "core.p4_ms", Unit: "sim_ms", Better: "lower", Moves: "sim_ms_p50", On: recovers, NotOn: fills,
		Doc: "simulated P4 duration, mean per recovery"},
	{Name: "machine.verify_lines_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: onlyTable, NotOn: cold,
		Doc: "VerifyResult.LinesChecked"},
	{Name: "machine.incoherent_lines_per_run", Unit: "count", Better: "lower", Moves: "sim_ms_p50", On: forked, NotOn: cold,
		Doc: "VerifyResult.Incoherent"},
}

// kernelDefs are the layer kernels: host ns (and allocations) per operation
// on inputs generated from -seed. The same kernels run whatever the
// workload.
var kernelDefs = []metricDef{
	{Name: "sim.schedule_fire_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: fills,
		Doc: "AfterCall with a short delay, then Run; per event"},
	{Name: "sim.schedule_fire_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_run", On: all,
		Doc: "allocations per scheduled and fired event"},
	{Name: "sim.timeout_cancel_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: []string{"tail-sparse", "recovery128"}, NotOn: fills,
		Doc: "arm a far timer and Timer.Cancel it"},
	{Name: "sim.engine_snapshot_ns", Unit: "ns", Better: "lower", Moves: "setup_s", On: forked,
		Doc: "Engine.Snapshot plus NewEngineFromSnapshot of a quiescent engine"},
	{Name: "interconnect.packet_hop_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: fills, NotOn: onlyTable,
		Doc: "Send corner to corner on an 8x8 mesh with sink endpoints; per hop"},
	{Name: "interconnect.packet_hop_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_run", On: fills,
		Doc: "allocations per corner-to-corner packet"},
	{Name: "coherence.dir_get_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: cold,
		Doc: "Directory.Get on a resident entry of a fresh directory"},
	{Name: "coherence.dir_get_forked_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: forked, NotOn: []string{"hive54", "fill1024"},
		Doc: "first Directory.Get of a frozen entry on a ForkDirectory (copy on write)"},
	{Name: "coherence.dir_scan_ns_per_entry", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: recovers,
		Doc: "Directory.Scan of a forked directory, per entry"},
	{Name: "coherence.cache_install_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: fills,
		Doc: "Cache.Install into a full cache (evicting)"},
	{Name: "coherence.cache_lookup_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "Cache.Lookup, half of them hits"},
	{Name: "coherence.cache_flush_ns_per_line", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: recovers,
		Doc: "Cache.Flush of a full cache, per line"},
	{Name: "magic.read_local_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: fills,
		Doc: "Controller.Read of a line homed on the reader, run to completion"},
	{Name: "magic.read_remote_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyTable,
		Doc: "Controller.Read of a line homed on the other node of a 2-node machine"},
	{Name: "magic.read_remote_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_run", On: all,
		Doc: "allocations per remote read"},
	{Name: "magic.write_remote_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: fills,
		Doc: "Controller.Write of a remote line"},
	{Name: "proc.submit_retire_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "CPU.Submit of local reads through the miss window, per retired op"},
	{Name: "topology.updown_tables_ns", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyRec, NotOn: notRec,
		Doc: "UpDownTables on a 128-router mesh with one dead router"},
	{Name: "routing.repair_ns.paper", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyRec, NotOn: notRec,
		Doc: "paper strategy RepairTables on the same view"},
	{Name: "routing.repair_ns.incremental", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyRec, NotOn: notRec,
		Doc: "incremental strategy RepairTables"},
	{Name: "routing.repair_ns.adaptive", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyRec, NotOn: notRec,
		Doc: "adaptive strategy RepairTables"},
	{Name: "machine.new_ns.16", Unit: "ns", Better: "lower", Moves: "setup_s", On: forked,
		Doc: "machine.New at 16 nodes"},
	{Name: "machine.new_ns.1024", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: fills,
		Doc: "machine.New at 1024 nodes"},
	{Name: "machine.snapshot_ns.16", Unit: "ns", Better: "lower", Moves: "setup_s", On: forked,
		Doc: "Machine.Snapshot of a warmed 16-node machine"},
	{Name: "machine.fork_ns.16", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyTail, NotOn: onlyHive,
		Doc: "machine.FromSnapshot at 16 nodes"},
	{Name: "machine.fork_allocs.16", Unit: "count", Better: "lower", Moves: "allocs_per_run", On: onlyTail, NotOn: onlyHive,
		Doc: "allocations per fork"},
	{Name: "metrics.merge_ns_per_snapshot", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "MergeSnapshots per merged run snapshot"},
	{Name: "runner.dispatch_ns_per_run", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "runner.Campaign over a no-op run function"},
	{Name: "obs.runlog_ns_per_record", Unit: "ns", Better: "lower", Moves: "runs_per_s", On: onlyHive,
		Doc: "RunLog.RunDone to io.Discard"},
}

// runtimeDefs are the Go runtime's share, over the untraced reps of the
// traced set.
var runtimeDefs = []metricDef{
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "/cpu/classes/gc/total over /cpu/classes/total; traded against live_heap_mb"},
	{Name: "runtime.gc_cycles_per_run", Unit: "count", Better: "lower", Moves: "runs_per_s", On: all,
		Doc: "/gc/cycles/total per run"},
}

// perLayer are the metrics of single layers.
var perLayer = concat(phaseDefs, exactDefs, kernelDefs, runtimeDefs)

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func without(name string) []string {
	var out []string
	for _, w := range all {
		if w != name {
			out = append(out, w)
		}
	}
	return out
}

// perLayerDefs is everything BENCHMARK.json lists under per_layer.
func perLayerDefs() []metricDef { return concat(userVisible, perLayer) }

func findDef(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, userVisible, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}
