package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"flashfc/internal/interconnect"
	"flashfc/internal/metrics"
)

// measure is one reported number. Q1 and Q3 are the quartiles of the N
// samples behind Value (its median); a metric measured once has N == 1.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Samples are the N values, kept when N > 1 so -compare can tell
	// whether every sample of one set beats every sample of the other.
	Samples []float64 `json:"samples,omitempty"`
}

// spread is the samples' interquartile range over their median.
func (m measure) spread() float64 {
	if m.N < 2 {
		return 0
	}
	return ratio(m.Q3-m.Q1, median(m.Samples))
}

func single(v float64, unit string) measure { return measure{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

func medianOf(xs []float64, unit string) measure {
	q1, m, q3 := quartiles(xs)
	return measure{Value: m, Unit: unit, Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// setResult is what one set (timed or traced) of one workload produced.
type setResult struct {
	Metrics    map[string]measure `json:"metrics"`
	RunsPerRep int                `json:"runs_per_rep"`
	Reps       int                `json:"reps"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	// Digest is the simulated-statistics digest every rep of the set
	// produced.
	Digest string   `json:"digest"`
	Errors []string `json:"errors,omitempty"`

	spans []span
}

func (s *setResult) fail(format string, args ...any) {
	s.Failed++
	s.Errors = append(s.Errors, fmt.Sprintf(format, args...))
}

// check folds one rep's outcome into the set: failed runs, and a digest
// that differs from the set's first rep (the simulator is deterministic, so
// a fixed unit of work must repeat exactly).
func (s *setResult) check(w *workload, r repResult, what string) {
	s.Attempted += len(r.Runs)
	s.Failed += r.failed()
	if r.err != "" {
		s.Errors = append(s.Errors, w.name+": "+r.err)
	}
	for i, f := range r.Runs {
		if !f.OK {
			s.Errors = append(s.Errors, fmt.Sprintf("%s: %s run %d (%s, seed %d) failed", w.name, what, i, f.Fault, f.Seed))
		}
	}
	d := w.digest(r)
	switch {
	case s.Digest == "":
		s.Digest = d
	case s.Digest != d:
		s.fail("%s: %s digest %s differs from the set's %s", w.name, what, d[:12], s.Digest[:12])
	}
}

// simAndFailures reports the two user-visible numbers both sets carry.
func (s *setResult) simAndFailures(ref repResult) {
	var sim []float64
	for _, f := range ref.Runs {
		if f.OK {
			sim = append(sim, float64(f.SimNS)/1e6)
		}
	}
	s.Metrics["sim_ms_p50"] = medianOf(sim, "sim_ms")
	s.Metrics["failed_share"] = single(float64(s.Failed)/float64(s.Attempted), "share")
}

// Set sizes. minTimedReps is the floor the issue fixes; maxSetTime keeps a
// run on a much slower host inside the driver's 180 s limit.
const (
	setupReps      = 5
	minTimedReps   = 9
	minTracedReps  = 3
	fullTracedReps = 5
	maxSetTime     = 100 * time.Second
)

// timedSet measures the end-to-end metrics of w through the public façade
// with tracing off: setupReps set-ups (input generation plus one untimed
// warm-up rep each), then timed reps of the same seeded unit of work for
// budget, then the resident heap.
func timedSet(w *workload, in inputs, budget time.Duration) setResult {
	s := setResult{Metrics: map[string]measure{}}
	setups, minReps := setupReps, minTimedReps
	if in.smoke {
		setups, minReps = 1, 1
	}
	var ref repResult
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		ref = w.facade(in)
		setupS = append(setupS, time.Since(t0).Seconds())
		s.check(w, ref, "set-up rep")
	}
	s.RunsPerRep = len(ref.Runs)

	var rate []float64
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	start := time.Now()
	for s.Reps < minReps || time.Since(start) < budget {
		// MemStats are read around each rep, so the checks between reps
		// stay out of the allocation counts.
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		r := w.facade(in)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		rate = append(rate, float64(len(r.Runs)-r.failed())/wall)
		s.Reps++
		s.check(w, r, "timed rep")
		if time.Since(start) > maxSetTime {
			break
		}
	}
	runs := float64(s.Reps * s.RunsPerRep)

	// The resident state is built by the untraced replica script (the
	// façade returns results, not machines), after the last timed rep so
	// the forced collection touches none of them.
	held := w.replica(in, nil)
	if err := w.fidelity(ref, held); err != nil {
		s.fail("%v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)

	s.Metrics["setup_s"] = medianOf(setupS, "s")
	// The fastest rep, not the median one: on a shared host, neighbours'
	// memory traffic only ever slows a rep down, for seconds to minutes at
	// a time, so the best of the reps is the steadiest estimate of what
	// the code costs. The reps' quartiles are kept beside it.
	best := medianOf(rate, "1/s")
	for _, r := range rate {
		if r > best.Value {
			best.Value = r
		}
	}
	s.Metrics["runs_per_s"] = best
	s.Metrics["allocs_per_run"] = single(float64(mallocs)/runs, "count")
	s.Metrics["alloc_kb_per_run"] = single(float64(bytes)/1024/runs, "KiB")
	s.Metrics["live_heap_mb"] = single(float64(after.HeapAlloc)/(1<<20), "MiB")
	s.simAndFailures(ref)
	return s
}

// gcSample reads the runtime's GC CPU accounting, which it updates at the
// end of each collection.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcSample {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	return gcSample{samples[0].Value.Float64(), samples[1].Value.Float64(), float64(samples[2].Value.Uint64())}
}

// tracedSet makes the traced run of w: façade reps and replica reps in
// alternation, so the two walls that bench.trace_overhead_ratio divides see
// the same host conditions. Every replica rep passes the fidelity gate
// against the façade's results.
func tracedSet(w *workload, in inputs, budget time.Duration, minReps int) setResult {
	s := setResult{Metrics: map[string]measure{}}
	if in.smoke {
		minReps = 1
	}
	ref := w.facade(in)
	s.check(w, ref, "warm-up rep")
	s.RunsPerRep = len(ref.Runs)

	t := newTracer()
	var facadeWall, replicaWall []float64
	var gc gcSample
	var last repResult
	start := time.Now()
	for s.Reps < minReps || time.Since(start) < budget {
		g0 := readGC()
		t0 := time.Now()
		r := w.facade(in)
		facadeWall = append(facadeWall, float64(time.Since(t0)))
		g1 := readGC()
		gc.gcCPU += g1.gcCPU - g0.gcCPU
		gc.totalCPU += g1.totalCPU - g0.totalCPU
		gc.cycles += g1.cycles - g0.cycles
		s.check(w, r, "untraced rep")

		t.rep = s.Reps
		root := len(t.spans)
		t.begin(spanRep)
		last = w.replica(in, t)
		t.end()
		replicaWall = append(replicaWall, float64(t.spans[root].End-t.spans[root].Start))
		s.check(w, last, "traced rep")
		if err := w.fidelity(ref, last); err != nil {
			s.fail("%v", err)
		}
		s.Reps++
		if time.Since(start) > maxSetTime {
			break
		}
	}
	s.spans = t.spans
	runs := float64(s.Reps * s.RunsPerRep)
	perRun := float64(s.RunsPerRep)

	self := selfByName(t.spans)
	ms := func(name string) measure { return single(float64(self[name])/1e6/runs, "ms") }
	for metric, name := range map[string]string{
		"experiments.warmup_ms":       spanWarmup,
		"machine.new_ms":              spanNew,
		"machine.fork_ms":             spanFork,
		"machine.run_to_recovered_ms": spanRecover,
		"machine.verify_ms":           spanVerify,
		"machine.metrics_scrape_ms":   spanScrape,
		"hive.boot_ms":                spanBoot,
		"hive.make_ms":                spanMake,
		"hive.evaluate_ms":            spanEval,
		"workload.fill_ms":            spanFill,
	} {
		s.Metrics[metric] = ms(name)
	}
	reps := float64(s.Reps)
	s.Metrics["machine.verify_ns_per_line"] = single(ratio(float64(self[spanVerify]), float64(last.verifyLines)*reps), "ns")
	var loop int64
	for _, name := range loopSpans {
		loop += self[name]
	}
	s.Metrics["machine.ns_per_event"] = single(ratio(float64(loop), float64(last.loopEvents)*reps), "ns")

	// Per-run host time, and the façade's cost over the bare script: its
	// rep wall minus everything the replica spends below the rep span.
	var runMS []float64
	var inRuns, below int64
	for _, sp := range t.spans {
		if sp.Name == spanRun {
			runMS = append(runMS, float64(sp.End-sp.Start)/1e6)
			inRuns += sp.End - sp.Start
		}
		if sp.Name == spanRun || sp.Name == spanWarmup {
			below += sp.End - sp.Start
		}
	}
	s.Metrics["machine.verify_share"] = single(ratio(float64(self[spanVerify]), float64(inRuns)), "share")
	s.Metrics["runner.run_ms_p50"] = medianOf(runMS, "ms")
	pct, tail := tailPercentile(runMS)
	s.Metrics["runner.run_ms_tail"] = single(tail, "ms")
	s.Metrics["runner.run_ms_tail_pct"] = single(pct, "%")
	s.Metrics["runner.overhead_ms"] = single((median(facadeWall)-float64(below)/reps)/1e6/perRun, "ms")
	s.Metrics["bench.trace_overhead_ratio"] = single(median(replicaWall)/median(facadeWall), "ratio")

	for name, v := range exactCounts(last.Metrics) {
		s.Metrics[name] = single(v/perRun, "count")
	}
	for name, v := range phaseMeans(last.Metrics) {
		s.Metrics[name] = single(v, "sim_ms")
	}
	s.Metrics["machine.verify_lines_per_run"] = single(float64(last.verifyLines)/perRun, "count")
	s.Metrics["machine.incoherent_lines_per_run"] = single(float64(last.incoherentLines)/perRun, "count")

	s.Metrics["runtime.gc_cpu_share"] = single(ratio(gc.gcCPU, gc.totalCPU), "share")
	s.Metrics["runtime.gc_cycles_per_run"] = single(gc.cycles/runs, "count")
	s.simAndFailures(ref)
	return s
}

// ratio is a/b, or 0 where b is 0: a workload without the span or count.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// parallelEfficiency is one rep of w at one worker per CPU against one rep
// at Workers 1, as a share of linear speed-up; the median of three pairs.
func parallelEfficiency(w *workload, in inputs) float64 {
	cpus := runtime.GOMAXPROCS(0)
	pairs := 3
	if in.smoke {
		pairs = 1
	}
	var eff []float64
	for i := 0; i < pairs; i++ {
		one, many := in, in
		one.workers, many.workers = 1, cpus
		t0 := time.Now()
		w.facade(one)
		t1 := time.Now()
		w.facade(many)
		eff = append(eff, float64(t1.Sub(t0))/float64(time.Since(t1))/float64(cpus))
	}
	return median(eff)
}

// exactCounts extracts the per-layer counts of one rep from its merged
// metric snapshot. They are simulated statistics: they repeat exactly and a
// host-speed change moves none of them.
func exactCounts(s *metrics.Snapshot) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	out := map[string]float64{
		"sim.events_per_run":                       c("sim.events_fired"),
		"sim.heap_compactions_per_run":             c("sim.heap_compactions"),
		"sim.barriers_per_run":                     c("sim.barriers"),
		"sim.cross_region_merged_per_run":          c("sim.cross_region_merged"),
		"sim.idle_windows_per_run":                 0,
		"interconnect.backpressure_stalls_per_run": c("interconnect.backpressure_stalls"),
		"interconnect.lost_packets_per_run":        c("interconnect.truncated_packets") + c("interconnect.blackholed_packets"),
		"magic.naks_per_run":                       c("magic.naks_sent"),
		"magic.op_timeouts_per_run":                c("magic.mem_op_timeouts"),
		"core.gossip_rounds_per_run":               c("core.gossip_rounds"),
		"core.drain_attempts_per_run":              c("core.drain_attempts"),
		"core.recovery_restarts_per_run":           c("core.recovery_restarts"),
	}
	for l := interconnect.LaneRequest; l <= interconnect.LaneRecoveryB; l++ {
		packets := c("interconnect.lane." + l.String() + ".packets")
		out["interconnect.packets_per_run"] += packets
		out["interconnect.flits_per_run"] += c("interconnect.lane." + l.String() + ".flits")
		if l.IsRecovery() {
			out["interconnect.recovery_lane_packets_per_run"] += packets
		}
	}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "sim.partition.") && strings.HasSuffix(name, ".lookahead_stalls") {
			out["sim.idle_windows_per_run"] += float64(v)
		}
	}
	return out
}

// phaseMeans are the simulated P1..P4 durations in ms, mean per recovery.
func phaseMeans(s *metrics.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for metric, hist := range map[string]string{
		"core.p1_ms": "machine.phase_p1", "core.p2_ms": "machine.phase_p2",
		"core.p3_ms": "machine.phase_p3", "core.p4_ms": "machine.phase_p4",
	} {
		out[metric] = 0
		if h, ok := s.Histograms[hist]; ok && h.Count > 0 {
			out[metric] = float64(h.Sum) / float64(h.Count) / 1e6
		}
	}
	return out
}
