package main

import (
	"io"
	"math/rand"
	"runtime"
	"time"

	"flashfc/internal/coherence"
	"flashfc/internal/experiments"
	"flashfc/internal/interconnect"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/obs"
	"flashfc/internal/proc"
	"flashfc/internal/routing"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// Layer kernels time public constructors and methods of single layers on
// inputs generated from the benchmark seed. They say what a layer costs in
// isolation; whether that cost matters is what the workloads say.

// kernel is one timed operation. build makes the inputs and returns the
// operation, how many layer operations one call performs, and an optional
// untimed preparation to run before every call.
type kernel struct {
	ns     string // metric: host ns per layer operation
	allocs string // metric: allocations per layer operation; "" if not reported
	build  func(rng *rand.Rand) (op func(), per int, prep func())
}

const batch = 1024

// lineAddrs draws n line addresses from the first `lines` lines.
func lineAddrs(rng *rand.Rand, n, lines int) []coherence.Addr {
	out := make([]coherence.Addr, n)
	for i := range out {
		out[i] = coherence.Addr(rng.Intn(lines) * 128)
	}
	return out
}

// frozenDirectory builds a directory image of n entries, half shared and
// half exclusive, frozen as a warm snapshot would hold it.
func frozenDirectory(addrs []coherence.Addr) map[coherence.Addr]*coherence.DirEntry {
	d := coherence.NewDirectory(8)
	for i, a := range addrs {
		e := d.Get(a)
		if i%2 == 0 {
			e.State = coherence.DirShared
			e.Sharers.Add(i % 8)
		} else {
			e.State = coherence.DirExclusive
			e.Owner = i % 8
		}
	}
	return d.Freeze()
}

// twoNodes is the smallest machine with a remote home: MAGIC kernels drive
// its controllers directly.
func twoNodes(seed int64) *machine.Machine {
	cfg := machine.DefaultConfig(2)
	cfg.Seed = seed
	cfg.MemBytes = 256 << 10
	cfg.L2Bytes = 64 << 10
	return machine.New(cfg)
}

// repairView is a 128-router mesh with one dead router, and the BFT the
// recovery agents would hand a routing strategy.
func repairView(rng *rand.Rand) (*topology.View, *topology.BFT) {
	w, h := machine.MeshShape(128)
	v := topology.NewView(topology.NewMesh(w, h))
	v.FailRouter(1 + rng.Intn(126))
	return v, v.BFS(v.ElectRoot())
}

// warm16 is a 16-node validation machine warmed to quiescence.
func warm16(seed int64) *experiments.WarmState {
	cfg := experiments.DefaultValidationConfig()
	cfg.Nodes = 16
	return experiments.WarmupValidation(cfg, seed)
}

func machineNew(nodes int, mem, l2 uint64) func(*rand.Rand) (func(), int, func()) {
	return func(rng *rand.Rand) (func(), int, func()) {
		cfg := machine.DefaultConfig(nodes)
		cfg.Seed = rng.Int63()
		cfg.MemBytes, cfg.L2Bytes = mem, l2
		return func() { sinkMachine = machine.New(cfg) }, 1, nil
	}
}

func repair(s routing.Strategy) func(*rand.Rand) (func(), int, func()) {
	return func(rng *rand.Rand) (func(), int, func()) {
		v, bft := repairView(rng)
		return func() { sinkRepair = s.RepairTables(v, bft) }, 1, nil
	}
}

// Results the compiler must not discard.
var (
	sinkMachine *machine.Machine
	sinkRepair  routing.Repair
	sinkTables  topology.Tables
	sinkEntry   *coherence.DirEntry
	sinkLine    *coherence.CacheLine
	sinkSnap    any
	sinkCount   uint64
)

var kernels = []kernel{
	{ns: "sim.schedule_fire_ns", allocs: "sim.schedule_fire_allocs", build: func(rng *rand.Rand) (func(), int, func()) {
		e := sim.NewEngine(rng.Int63())
		delays := make([]sim.Time, batch)
		for i := range delays {
			delays[i] = sim.Time(rng.Intn(2000))
		}
		cb := sim.Callback(func(_, _ any, u uint64) { sinkCount += u })
		return func() {
			for _, d := range delays {
				e.AfterCall(d, cb, e, nil, 1)
			}
			e.Run()
		}, batch, nil
	}},
	{ns: "sim.timeout_cancel_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		e := sim.NewEngine(rng.Int63())
		delays := make([]sim.Time, batch)
		for i := range delays {
			delays[i] = 10*sim.Millisecond + sim.Time(rng.Intn(1000000))
		}
		cb := sim.Callback(func(_, _ any, u uint64) { sinkCount += u })
		return func() {
			for _, d := range delays {
				e.AfterCall(d, cb, e, nil, 1).Cancel()
			}
			e.RunUntil(e.Now() + sim.Microsecond)
		}, batch, nil
	}},
	{ns: "sim.engine_snapshot_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		e := sim.NewEngine(rng.Int63())
		for i := 0; i < batch; i++ {
			e.After(sim.Time(rng.Intn(2000)), func() { e.Rand().Int63() })
		}
		e.Run()
		return func() { sinkSnap = sim.NewEngineFromSnapshot(e.Snapshot()) }, 1, nil
	}},
	{ns: "interconnect.packet_hop_ns", allocs: "interconnect.packet_hop_allocs", build: func(rng *rand.Rand) (func(), int, func()) {
		e := sim.NewEngine(rng.Int63())
		topo := topology.NewMesh(8, 8)
		n := interconnect.New(e, topo, interconnect.DefaultConfig())
		for i := 0; i < topo.Routers(); i++ {
			n.SetEndpoint(i, interconnect.EndpointFunc(func(*interconnect.Packet) bool { return true }))
		}
		p := &interconnect.Packet{Src: 0, Dst: 63, Lane: interconnect.LaneRequest, Bytes: 16}
		return func() {
			n.Send(p)
			e.Run()
		}, 14, nil
	}},
	{ns: "coherence.dir_get_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		addrs := lineAddrs(rng, batch, 4096)
		d := coherence.NewDirectory(8)
		for _, a := range addrs {
			d.Get(a).State = coherence.DirShared
		}
		return func() {
			for _, a := range addrs {
				sinkEntry = d.Get(a)
			}
		}, batch, nil
	}},
	{ns: "coherence.dir_get_forked_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		addrs := lineAddrs(rng, batch, 1<<20)
		frozen := frozenDirectory(addrs)
		var d *coherence.Directory
		return func() {
				for _, a := range addrs {
					sinkEntry = d.Get(a)
				}
			}, batch, func() {
				d = coherence.ForkDirectory(8, frozen)
			}
	}},
	{ns: "coherence.dir_scan_ns_per_entry", build: func(rng *rand.Rand) (func(), int, func()) {
		frozen := frozenDirectory(lineAddrs(rng, batch, 1<<20))
		var d *coherence.Directory
		return func() { sinkCount += uint64(len(d.Scan())) }, len(frozen), func() {
			d = coherence.ForkDirectory(8, frozen)
		}
	}},
	{ns: "coherence.cache_install_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		addrs := lineAddrs(rng, batch, 1<<20)
		c := coherence.NewCache(64 << 10)
		return func() {
			for i, a := range addrs {
				c.Install(a, coherence.CacheState(i%2), uint64(i))
			}
		}, batch, nil
	}},
	{ns: "coherence.cache_lookup_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		// 512 resident lines of the 1024 the lookups draw from.
		c := coherence.NewCache(64 << 10)
		for i := 0; i < 512; i++ {
			c.Install(coherence.Addr(i*2*128), coherence.CacheShared, 1)
		}
		addrs := lineAddrs(rng, batch, 1024)
		return func() {
			for _, a := range addrs {
				sinkLine = c.Lookup(a)
			}
		}, batch, nil
	}},
	{ns: "coherence.cache_flush_ns_per_line", build: func(rng *rand.Rand) (func(), int, func()) {
		addrs := lineAddrs(rng, 4*512, 1<<20)
		c := coherence.NewCache(64 << 10)
		return func() {
				a, _ := c.Flush()
				sinkCount += uint64(len(a))
			}, c.CapacityLines(), func() {
				for i, a := range addrs {
					c.Install(a, coherence.CacheState(i%2), uint64(i))
				}
			}
	}},
	{ns: "magic.read_local_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		return magicOps(rng, 0, func(c *magic.Controller, a coherence.Addr, cb func(magic.Result)) { c.Read(a, cb) })
	}},
	{ns: "magic.read_remote_ns", allocs: "magic.read_remote_allocs", build: func(rng *rand.Rand) (func(), int, func()) {
		return magicOps(rng, 1, func(c *magic.Controller, a coherence.Addr, cb func(magic.Result)) { c.Read(a, cb) })
	}},
	{ns: "magic.write_remote_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		return magicOps(rng, 1, func(c *magic.Controller, a coherence.Addr, cb func(magic.Result)) { c.Write(a, 7, cb) })
	}},
	{ns: "proc.submit_retire_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		m := twoNodes(rng.Int63())
		next := missAddrs(rng, m, 0)
		done := func(r magic.Result) {
			if r.Err == nil {
				sinkCount++
			}
		}
		return func() {
			for i := 0; i < 256; i++ {
				m.Nodes[0].CPU.Submit(proc.Op{Kind: proc.OpRead, Addr: next(), Done: done})
			}
			m.E.Run()
		}, 256, nil
	}},
	{ns: "topology.updown_tables_ns", build: func(rng *rand.Rand) (func(), int, func()) {
		v, bft := repairView(rng)
		return func() { sinkTables = topology.UpDownTables(v, bft) }, 1, nil
	}},
	{ns: "routing.repair_ns.paper", build: repair(routing.Paper)},
	{ns: "routing.repair_ns.incremental", build: repair(routing.Incremental)},
	{ns: "routing.repair_ns.adaptive", build: repair(routing.Adaptive)},
	{ns: "machine.new_ns.16", build: machineNew(16, 256<<10, 64<<10)},
	{ns: "machine.new_ns.1024", build: machineNew(1024, 64<<10, 16<<10)},
	{ns: "machine.snapshot_ns.16", build: func(rng *rand.Rand) (func(), int, func()) {
		// Fork the warm image to get a live quiescent machine to snapshot.
		m := machine.FromSnapshot(warm16(rng.Int63()).Snap, nil)
		return func() { sinkSnap = m.Snapshot() }, 1, nil
	}},
	{ns: "machine.fork_ns.16", allocs: "machine.fork_allocs.16", build: func(rng *rand.Rand) (func(), int, func()) {
		ws := warm16(rng.Int63())
		return func() { sinkMachine = machine.FromSnapshot(ws.Snap, nil) }, 1, nil
	}},
	{ns: "metrics.merge_ns_per_snapshot", build: func(rng *rand.Rand) (func(), int, func()) {
		// Snapshots of a warmed machine, as a campaign merges its runs'.
		snap := machine.FromSnapshot(warm16(rng.Int63()).Snap, nil).MetricsSnapshot()
		snaps := make([]*metrics.Snapshot, 64)
		for i := range snaps {
			snaps[i] = snap
		}
		return func() { sinkSnap = metrics.MergeSnapshots(snaps) }, len(snaps), nil
	}},
	{ns: "runner.dispatch_ns_per_run", build: func(*rand.Rand) (func(), int, func()) {
		return func() {
			_, st := runner.Campaign(batch, 1, func(i int, rec *runner.Recorder) int {
				rec.Report(1)
				return i
			}, nil)
			sinkCount += st.Events
		}, batch, nil
	}},
	{ns: "obs.runlog_ns_per_record", build: func(rng *rand.Rand) (func(), int, func()) {
		recs := make([]obs.RunRecord, batch)
		for i := range recs {
			recs[i] = obs.RunRecord{Run: i, Seed: rng.Int63(), Fault: "node-failure(node 3)",
				Outcome: obs.OutcomePass, ContainmentNS: rng.Int63n(1e8), Events: uint64(rng.Intn(1e6))}
		}
		return func() {
			l := obs.NewRunLog(io.Discard, false)
			l.StartBatch(obs.Batch{Label: "kernel", Runs: len(recs)})
			for _, r := range recs {
				l.RunDone(r)
			}
			l.Finish()
		}, batch, nil
	}},
}

// missAddrs returns a cursor over a random permutation of every line homed
// on node home: the working set is four times the cache, so with FIFO
// replacement every access it hands out misses.
func missAddrs(rng *rand.Rand, m *machine.Machine, home int) func() coherence.Addr {
	perm := rng.Perm(m.Space.Lines())
	base, next := m.Space.Base(home), 0
	return func() coherence.Addr {
		a := base + coherence.Addr(perm[next]*128)
		next = (next + 1) % len(perm)
		return a
	}
}

// magicOps issues one controller operation at a time from node 0 of a
// 2-node machine to lines homed on node `home`, running the engine to
// completion after each.
func magicOps(rng *rand.Rand, home int, issue func(*magic.Controller, coherence.Addr, func(magic.Result))) (func(), int, func()) {
	m := twoNodes(rng.Int63())
	next := missAddrs(rng, m, home)
	done := func(r magic.Result) {
		if r.Err == nil {
			sinkCount++
		}
	}
	return func() {
		for i := 0; i < 256; i++ {
			issue(m.Nodes[0].Ctrl, next(), done)
			m.E.Run()
		}
	}, 256, nil
}

// runKernel calls k's operation until minTime has been measured (at least
// three calls, after one warm-up call) and reports the median call's ns per
// layer operation. Allocations per layer operation are counted over a few
// further calls, so reading MemStats stops the world twice, not per call.
func runKernel(k kernel, seed int64, minTime time.Duration) (ns, allocs float64) {
	op, per, prep := k.build(rand.New(rand.NewSource(seed)))
	call := func() time.Duration {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		op()
		return time.Since(t0)
	}
	call()
	var perOp []float64
	var total time.Duration
	for len(perOp) < 3 || total < minTime {
		d := call()
		total += d
		perOp = append(perOp, float64(d)/float64(per))
	}
	if k.allocs != "" {
		const calls = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(calls*per)
	}
	return median(perOp), allocs
}

// runKernels measures every kernel for minTime each.
func runKernels(seed int64, minTime time.Duration) map[string]measure {
	out := map[string]measure{}
	for _, k := range kernels {
		ns, allocs := runKernel(k, seed, minTime)
		out[k.ns] = single(ns, "ns")
		if k.allocs != "" {
			out[k.allocs] = single(allocs, "count")
		}
	}
	return out
}
