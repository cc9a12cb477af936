// Package machine assembles a complete simulated FLASH system — topology,
// interconnect, per-node memory/cache/directory, MAGIC controllers,
// processors, and recovery agents — and provides the experiment harness:
// fault injection (implementing fault.Target), a ground-truth oracle that
// knows which lines may legitimately have been lost, whole-memory
// verification (the §5.2 validation check), and per-phase recovery-time
// aggregation for the scalability figures.
package machine

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/core"
	"flashfc/internal/fault"
	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/proc"
	"flashfc/internal/routing"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// TopoKind selects the interconnect shape.
type TopoKind int

const (
	// TopoMesh is the 2-D mesh the paper's experiments assume.
	TopoMesh TopoKind = iota
	// TopoHypercube approximates FLASH's fat-hypercube for the Fig 5.5
	// dissemination-scaling comparison.
	TopoHypercube
)

// Config describes one simulated machine.
type Config struct {
	Nodes    int
	Topo     TopoKind
	MemBytes uint64 // main memory per node (Table 5.1: 1–16 MB)
	L2Bytes  uint64 // second-level cache (Table 5.1: 1 MB)
	Seed     int64
	// ReliableInterconnect builds the §6.3 HAL-style machine: hardware
	// end-to-end reliable coherence delivery and flush-free recovery.
	ReliableInterconnect bool
	// FailureUnits maps node → failure unit (nil: one unit per node).
	FailureUnits []int
	// Trace, when non-nil, collects the span tree and the point stream:
	// packet lifecycles, MAGIC events and the timeline (injections,
	// per-node phase transitions, completions).
	Trace *trace.Tracer
	// Magic carries controller options (firewall, protocol-memory range).
	Magic magic.Config
	// Recovery carries recovery-algorithm options; machine wiring wraps
	// its callbacks and sets its routing strategy and failure units from
	// this Config.
	Recovery core.Config
	// Routing names the interconnect-recovery routing strategy
	// (routing.Names: "paper", "incremental", "adaptive"; "" is "paper").
	// Kept as a name, as the -routing flag gives it, so a fork can override
	// its snapshot's by name (FromSnapshotRouting).
	Routing string

	// Partitions, when > 0, runs the machine's event core as a partitioned
	// simulation: the mesh is decomposed into fixed regions (one engine
	// each, topology.AutoRegions) advanced in conservative lookahead
	// windows, with Partitions worker threads multiplexing the regions.
	// The decomposition is a pure function of the topology — Partitions
	// only sets the thread count — so results are bit-identical at any
	// value. 0 builds the classic single-engine machine, untouched.
	//
	// A partitioned machine runs only a region-safe, fault-free workload:
	// Inject, InjectAt, Snapshot and recovery entry panic on it (see
	// faultFree).
	Partitions int
	// RegionLinkExtra is the additional wire latency of inter-region links
	// in partitioned mode: regions model clusters of a clusterized mesh,
	// whose inter-cluster cables are physically longer. It sets the
	// conservative lookahead (interconnect.LookaheadBound). 0 selects
	// DefaultRegionLinkExtra.
	RegionLinkExtra sim.Time
	// ParallelWindows declares the workload region-safe: every event
	// handler touches only its own region's state, and cross-region
	// interaction is packet-only. New refuses Partitions > 0 without it.
	ParallelWindows bool
}

// DefaultRegionLinkExtra is the inter-region wire latency used when
// Config.RegionLinkExtra is 0: 2 µs, long enough that lookahead windows
// amortize the barrier cost, short next to every recovery timescale.
const DefaultRegionLinkExtra = 2 * sim.Microsecond

// DefaultConfig returns a Table 5.1-style machine: mesh topology, 1 MB of
// memory per node, 1 MB L2.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:    nodes,
		Topo:     TopoMesh,
		MemBytes: 1 << 20,
		L2Bytes:  1 << 20,
		Seed:     1,
		Magic:    magic.DefaultConfig(),
		Recovery: core.DefaultConfig(),
	}
}

// Node bundles one node's components.
type Node struct {
	ID    int
	Mem   *coherence.Memory
	Dir   *coherence.Directory
	Cache *coherence.Cache
	Ctrl  *magic.Controller
	CPU   *proc.CPU
	Agent *core.Agent
}

// Machine is a complete simulated system.
type Machine struct {
	Cfg  Config
	E    *sim.Engine
	Topo *topology.Topology
	// P is the partition coordinator of a partitioned machine (Config.
	// Partitions > 0); nil on classic machines. When non-nil, E is region
	// 0's engine and all driving must go through Advance.
	P      *sim.Partitioned
	Net    *interconnect.Network
	Space  coherence.AddrSpace
	Nodes  []*Node
	Oracle *Oracle
	// Metrics is the machine-wide registry every layer reports into. Each
	// machine owns its own registry — no globals — so parallel campaign
	// runs stay independent and bit-identical.
	Metrics *metrics.Registry

	// live is the ground truth about the hardware (what was actually
	// injected, independent of what the algorithm discovers) and the
	// current recovery round's reports.
	live *Liveness
	// repairs is the P3 table-repair memo this machine's agents share.
	repairs *core.RepairMemo

	recovered bool
	lastEpoch int
	// OnAllRecovered, if set, replaces the default post-recovery action
	// (resume all surviving CPUs); the Hive layer uses it to run OS
	// recovery first. The callback must call ResumeSurvivors itself.
	OnAllRecovered func(map[int]*core.Report)
}

// MeshShape returns the w×h used for an n-node mesh: the most square
// factorization with w ≥ h.
func MeshShape(n int) (w, h int) {
	w, h = n, 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			w, h = n/d, d
		}
	}
	return w, h
}

// New builds and wires a machine.
func New(cfg Config) *Machine { return build(cfg, nil) }

// build wires a machine either from scratch (snap == nil) or rehydrated
// from a frozen snapshot: the engine resumes at the snapshot's clock and
// RNG position, stats and firewall images are restored, and per-node
// memory/directory images are shared copy-on-write with the snapshot.
func build(cfg Config, snap *Snapshot) *Machine {
	var topo *topology.Topology
	switch cfg.Topo {
	case TopoHypercube:
		dim := 0
		for 1<<dim < cfg.Nodes {
			dim++
		}
		if 1<<dim != cfg.Nodes {
			panic(fmt.Sprintf("machine: hypercube needs power-of-two nodes, got %d", cfg.Nodes))
		}
		topo = topology.NewHypercube(dim)
	default:
		w, h := MeshShape(cfg.Nodes)
		topo = topology.NewMesh(w, h)
	}
	var regions *topology.Regions
	if cfg.Partitions > 0 {
		if !cfg.ParallelWindows {
			panic(fmt.Sprintf("machine: Partitions %d without ParallelWindows: %s", cfg.Partitions, partitionRule))
		}
		regions = topology.AutoRegions(topo)
	}
	var e *sim.Engine
	var P *sim.Partitioned
	var reg *metrics.Registry
	oracle := NewOracle()
	if snap != nil {
		reg = snap.Metrics.Clone()
		oracle = snap.Oracle.Clone()
	} else {
		reg = metrics.NewRegistry()
	}
	extra := cfg.RegionLinkExtra
	if extra <= 0 {
		extra = DefaultRegionLinkExtra
	}
	if regions != nil {
		// Snapshot refuses a partitioned machine, so none is rehydrated.
		P = sim.NewPartitioned(cfg.Seed, regions.Count(), interconnect.LookaheadBound(extra), cfg.Partitions)
		e = P.Region(0)
		if cfg.Trace != nil {
			// Concurrent region workers make recording order scheduling
			// noise; full-tuple sorting keeps exported traces
			// bit-identical at any worker count.
			cfg.Trace.Deterministic = true
		}
	} else if snap != nil {
		e = sim.NewEngineFromSnapshot(snap.Engine)
	} else {
		e = sim.NewEngine(cfg.Seed)
	}
	strat, err := routing.Get(cfg.Routing)
	if err != nil {
		panic("machine: " + err.Error())
	}
	icfg := interconnect.DefaultConfig()
	icfg.Reliable = cfg.ReliableInterconnect
	icfg.Metrics = reg
	icfg.Trace = cfg.Trace
	if P != nil {
		of := make([]int, topo.Routers())
		engines := make([]*sim.Engine, regions.Count())
		for i := range of {
			of[i] = regions.Of(i)
		}
		for i := range engines {
			engines[i] = P.Region(i)
		}
		icfg.Partition = &interconnect.Partition{Of: of, Engines: engines, P: P, Extra: extra}
	}
	net := interconnect.New(e, topo, icfg)
	if snap != nil {
		net.Restore(snap.Net)
	}
	space := coherence.AddrSpace{Nodes: cfg.Nodes, MemBytes: cfg.MemBytes}
	m := &Machine{
		Cfg: cfg, E: e, Topo: topo, P: P, Net: net, Space: space,
		Oracle:  oracle,
		Metrics: reg,
		live:    newLiveness(topo, cfg.Nodes),
	}
	net.OnLost = m.Oracle.PacketLost
	cfg.Magic.Metrics = reg
	cfg.Magic.Trace = cfg.Trace

	rcfg := cfg.Recovery
	rcfg.Metrics = reg
	rcfg.Trace = cfg.Trace
	rcfg.Routing = strat
	// Host-side cache, not simulated state: a cold build and every fork get
	// a fresh memo, shared by this machine's agents only.
	m.repairs = core.NewRepairMemo()
	rcfg.Repairs = m.repairs
	rcfg.FailureUnits = cfg.FailureUnits
	rcfg.MemServes = m.live.MemServes
	userOnEnter := rcfg.OnEnter
	userOnComplete := rcfg.OnComplete

	for i := 0; i < cfg.Nodes; i++ {
		// Every component of node i lives on its region's engine, so all
		// node-local events run on the region scheduler; only packets
		// cross regions.
		en := e
		if P != nil {
			en = P.Region(regions.Of(i))
		}
		n := &Node{ID: i}
		if snap != nil {
			ns := &snap.Nodes[i]
			n.Mem = coherence.ForkMemory(space.Base(i), cfg.MemBytes, ns.Mem)
			n.Dir = coherence.ForkDirectory(cfg.Nodes, ns.Dir)
			n.Cache = ns.Cache.Clone()
		} else {
			n.Mem = coherence.NewMemory(space.Base(i), cfg.MemBytes)
			n.Dir = coherence.NewDirectory(cfg.Nodes)
			n.Cache = coherence.NewCache(cfg.L2Bytes)
		}
		n.Dir.SetHome(space.Base(i), space.Lines())
		n.Ctrl = magic.New(en, net, i, space, n.Dir, n.Mem, n.Cache, cfg.Magic)
		if snap != nil {
			n.Ctrl.Restore(snap.Nodes[i].Ctrl)
		}
		n.Ctrl.SetDeadDropHandler(func(msg *coherence.Message) {
			if msg.Type.CarriesData() {
				m.Oracle.LostLine(msg.Addr)
			}
		})
		if cfg.FailureUnits != nil {
			n.Ctrl.SetFailureUnits(cfg.FailureUnits)
		}
		n.CPU = proc.New(en, n.Ctrl, timing.CPUWindow)
		if snap != nil {
			n.CPU.Restore(snap.Nodes[i].CPU)
		}
		// Phase transitions are recorded by the agents themselves (both
		// the timeline point and the phase spans), so no OnPhase wrapper
		// is needed here.
		nodeCfg := rcfg
		nodeCfg.OnEnter = func(id int) {
			m.faultFree("recovery entry")
			m.Nodes[id].CPU.Pause()
			if userOnEnter != nil {
				userOnEnter(id)
			}
		}
		nodeCfg.OnComplete = func(r *core.Report) {
			m.agentDone(r)
			if userOnComplete != nil {
				userOnComplete(r)
			}
		}
		n.Agent = core.NewAgent(en, net, n.Ctrl, topo, nodeCfg)
		m.Nodes = append(m.Nodes, n)
	}
	return m
}

// --- fault.Target implementation -------------------------------------------

var _ fault.Target = (*Machine)(nil)

// KillNode implements a Table 5.2 node failure: the controller, processor,
// memory and caches become unavailable; the router stays up.
func (m *Machine) KillNode(id int) { m.stopController(id, magic.ModeDead) }

// LoopNode implements the infinite-loop fault: the controller stops
// accepting packets and traffic backs up into the fabric.
func (m *Machine) LoopNode(id int) { m.stopController(id, magic.ModeLoop) }

// stopController takes node id's controller, and the processor and caches
// behind it, out of the machine in mode.
func (m *Machine) stopController(id int, mode magic.Mode) {
	m.lostCacheContents(id)
	m.Nodes[id].CPU.Pause()
	m.Nodes[id].Ctrl.SetMode(mode)
	m.Nodes[id].Agent.Kill()
	m.live.kill(id, ctrlDead)
	m.planExpectations()
}

// FailRouter implements a router failure. The attached node is cut off and
// will shut itself down when it notices; its cache contents are lost.
func (m *Machine) FailRouter(r int) {
	m.lostCacheContents(r)
	m.Net.FailRouter(r)
	m.live.failRouter(r)
	m.planExpectations()
}

// FailLink implements a link failure.
func (m *Machine) FailLink(l int) {
	m.Net.FailLink(l)
	m.live.failLink(l)
	m.planExpectations()
}

// FalseAlarm triggers recovery on a healthy node with no actual fault.
func (m *Machine) FalseAlarm(id int) {
	m.Nodes[id].Agent.Trigger(magic.ReasonFalseAlarm)
	m.planExpectations()
}

// DegradeLink implements a transient link fault: the link drops (and
// truncates in-flight) traffic now and heals after window. Ground truth is
// left untouched — the hardware is whole again once the window closes — so
// every node is expected to participate in whatever recovery the dropped
// traffic provokes, and nothing a healed link carried afterwards may be
// charged to the fault.
func (m *Machine) DegradeLink(l int, window sim.Time) {
	m.Metrics.Counter("machine.links_degraded").Inc()
	m.Net.FailLinkTransient(l, window)
	m.planExpectations()
}

// SlowNode implements the fail-slow fault: node id's MAGIC handler engine
// keeps running, but every handler occupancy is multiplied by factor. The
// node never dies — it must remain a full recovery participant — yet its
// service degradation stalls its own outstanding operations long enough to
// trip the memory-op timeout, which is how the fault is detected.
func (m *Machine) SlowNode(id, factor int) {
	m.Metrics.Counter("machine.nodes_slowed").Inc()
	m.Nodes[id].Ctrl.SetSlowFactor(factor)
	m.planExpectations()
	// The slow node's processor is healthy and drops into recovery itself
	// once one of its memory operations times out behind the 10-100x
	// handlers. Modeled as a deterministic trigger one timeout after onset.
	agent := m.Nodes[id].Agent
	m.E.After(timing.MemOpTimeout, func() {
		agent.Trigger(magic.ReasonTimeout)
	})
}

// KillCPU implements the CPU-fail/memory-survives fault: node id's
// processor complex (CPU and caches) dies, but its MAGIC and memory/
// directory bank keep serving coherence traffic. The node is dead for
// recovery purposes — it never pongs, and survivors mark it down — but it
// is not isolated: survivors salvage the clean lines it homes instead of
// losing the whole bank.
func (m *Machine) KillCPU(id int) {
	m.Metrics.Counter("machine.cpu_failures").Inc()
	m.lostCacheContents(id)
	m.Nodes[id].CPU.Pause()
	m.Nodes[id].Cache.FlushEach(nil) // the cache dies with the processor complex
	m.Nodes[id].Ctrl.CPUDied()
	m.Nodes[id].Agent.Kill()
	m.live.kill(id, ctrlDead|memServes)
	m.planExpectations()
	// Detection: the victim's MAGIC notices its processor interface died
	// and signals a surviving neighbor, which starts the recovery wave —
	// the victim cannot run recovery code on a dead processor.
	if s := m.Survivors(); len(s) > 0 {
		agent := m.Nodes[s[0]].Agent
		m.E.After(timing.MemOpTimeout, func() {
			agent.Trigger(magic.ReasonCPUDead)
		})
	}
}

// partitionRule is the partitioned engine's contract, named by every
// refusal of it.
const partitionRule = "a partitioned machine runs only a region-safe, fault-free workload"

// faultFree panics, naming what and the rule, on a partitioned machine: a
// fault, a snapshot or a recovery touches machine-wide state that region
// workers would race on.
func (m *Machine) faultFree(what string) {
	if m.P != nil {
		panic(fmt.Sprintf("machine: %s on a partitioned machine: %s", what, partitionRule))
	}
}

// Inject applies f now.
func (m *Machine) Inject(f fault.Fault) { m.inject(f) }

// InjectAll applies a compound fault (e.g. fault.PowerLoss) now.
func (m *Machine) InjectAll(fs []fault.Fault) { m.inject(fs...) }

// InjectAt schedules f at simulated time t.
func (m *Machine) InjectAt(f fault.Fault, t sim.Time) {
	m.faultFree("InjectAt")
	m.E.At(t, func() { m.inject(f) })
}

// inject is the one injection path: it turns packet points back on (see
// agentDone), then records, counts and applies each fault.
func (m *Machine) inject(fs ...fault.Fault) {
	m.faultFree("Inject")
	m.Net.TracePackets(true)
	for _, f := range fs {
		m.Cfg.Trace.Record(m.Now(), -1, trace.KindFault, "%v", f)
		m.Metrics.Counter("machine.faults_injected").Inc()
		f.Apply(m)
	}
}

// lostCacheContents records every exclusive line cached on a node that is
// about to become unavailable: those lines may legitimately turn incoherent.
func (m *Machine) lostCacheContents(id int) {
	m.Nodes[id].Cache.ForEach(func(a coherence.Addr, l *coherence.CacheLine) {
		if l.State == coherence.CacheExclusive {
			m.Oracle.LostLine(a)
		}
	})
}

// --- recovery bookkeeping ---------------------------------------------------

// InstalledTables reads back every router's currently installed next-hop
// row — the tables actually routing traffic, post-recovery patches
// included.
func (m *Machine) InstalledTables() topology.Tables {
	tb := make(topology.Tables, m.Topo.Routers())
	for r := range tb {
		tb[r] = m.Net.RouterTable(r)
	}
	return tb
}

// planExpectations closes every fault.Target method: the liveness view
// recomputes the survivors, which are the nodes expected to produce
// recovery reports. Nodes with working controllers that are cut off from
// the main component (partitions, dead routers) cannot return their
// exclusive lines: the oracle learns those may be lost.
func (m *Machine) planExpectations() {
	m.recovered = false
	m.live.applyFault()
	for i := range m.Nodes {
		if m.live.cutOff(i) {
			m.lostCacheContents(i)
		}
	}
}

func (m *Machine) agentDone(r *core.Report) {
	if m.recovered && r.Epoch > m.lastEpoch {
		// A fresh recovery round (e.g. triggered by a straggling
		// timeout) after the previous one completed: collect reports
		// anew so its completion is acted on too.
		m.recovered = false
		m.live.newRound()
	}
	if r.Epoch > m.lastEpoch {
		m.lastEpoch = r.Epoch
	}
	all := m.live.report(r)
	m.Cfg.Trace.Record(m.E.Now(), r.Node, trace.KindComplete,
		"epoch=%d restarts=%d shutdown=%v incoherent=%d", r.Epoch, r.Restarts, r.ShutDown, r.Incoherent)
	if r.Isolated || r.ShutDown {
		// Whatever the node still held when it shut down is gone:
		// cache contents acquired after the injection snapshot and any
		// unreturned orphan grants.
		m.lostCacheContents(r.Node)
		for _, o := range m.Nodes[r.Node].Ctrl.Orphans() {
			m.Oracle.LostLine(o.Addr)
		}
	}
	if m.recovered || !all {
		return
	}
	m.recovered = true
	m.Cfg.Trace.EndRoot(m.E.Now())
	// The trace explains the containment window, fault to recovery: what
	// follows (the verify sweep, OS recovery, the workload resuming) records
	// no packet points until the next injection.
	m.Net.TracePackets(false)
	m.salvageMemServed()
	m.observeRecovery()
	if m.OnAllRecovered != nil {
		m.OnAllRecovered(m.Reports())
		return
	}
	m.ResumeSurvivors()
}

// salvageMemServed runs the post-recovery sweep over every CPU-failed
// node's still-served directory bank: the survivors' view is installed as
// its node map, then a liveness scan marks only the lines entrusted to dead
// caches incoherent — clean and memory-resident lines are salvaged instead
// of the blanket inaccessibility a fully dead home would impose.
func (m *Machine) salvageMemServed() {
	for v := range m.Nodes {
		if !m.live.MemServes(v) {
			continue
		}
		ctrl := m.Nodes[v].Ctrl
		for i := range m.Nodes {
			ctrl.SetNodeUp(i, m.live.Survivor(i))
		}
		marked := ctrl.ScanDirectoryLiveness()
		m.Metrics.Counter("machine.salvage_sweeps").Inc()
		m.Metrics.Counter("machine.salvage_incoherent").Add(uint64(len(marked)))
	}
}

// observeRecovery folds one completed machine-wide recovery into the metrics
// registry: per-phase latency distributions (the Fig 5.5 quantities) and the
// shutdown count.
func (m *Machine) observeRecovery() {
	m.Metrics.Counter("machine.recoveries").Inc()
	for _, r := range m.Reports() {
		if r.ShutDown || r.Isolated {
			m.Metrics.Counter("machine.nodes_shutdown").Inc()
		}
	}
	pt := m.Aggregate()
	if pt.Participants == 0 {
		return
	}
	m.Metrics.Histogram("machine.phase_p1").Observe(int64(pt.P1))
	m.Metrics.Histogram("machine.phase_p2").Observe(int64(pt.P2Time()))
	m.Metrics.Histogram("machine.phase_p3").Observe(int64(pt.P123 - pt.P12))
	m.Metrics.Histogram("machine.phase_p4").Observe(int64(pt.P4Time()))
	m.Metrics.Histogram("machine.recovery_total").Observe(int64(pt.Total))
}

// MetricsSnapshot scrapes the engine-level counters into the registry and
// returns a point-in-time snapshot of every instrument. The sim package
// cannot import metrics (it sits below everything), so its counters are
// pulled here rather than pushed there. On a partitioned machine the
// engine totals sum all regions, and per-partition instruments
// (sim.partition.NN.*) expose each region's deterministic load accounting.
func (m *Machine) MetricsSnapshot() *metrics.Snapshot {
	if m.P != nil {
		m.Metrics.Counter("sim.events_fired").Set(m.P.EventsFired())
		m.Metrics.Counter("sim.heap_compactions").Set(m.P.Compactions())
		m.Metrics.Gauge("sim.events_pending").Set(int64(m.P.Pending()))
		m.Metrics.Counter("sim.barriers").Set(m.P.Barriers())
		m.Metrics.Counter("sim.cross_region_merged").Set(m.P.Merged())
		for i := 0; i < m.P.Regions(); i++ {
			fired, stalls, merged := m.P.RegionLoad(i)
			m.Metrics.Counter(fmt.Sprintf("sim.partition.%02d.events_fired", i)).Set(fired)
			m.Metrics.Counter(fmt.Sprintf("sim.partition.%02d.lookahead_stalls", i)).Set(stalls)
			m.Metrics.Counter(fmt.Sprintf("sim.partition.%02d.merged_in", i)).Set(merged)
		}
	} else {
		m.Metrics.Counter("sim.events_fired").Set(m.E.EventsFired())
		m.Metrics.Counter("sim.heap_compactions").Set(m.E.Compactions())
		m.Metrics.Gauge("sim.events_pending").Set(int64(m.E.Pending()))
	}
	return m.Metrics.Snapshot()
}

// ResumeSurvivors resumes the CPUs of every node that completed recovery
// without shutting down, in node order (resume order is visible to user
// code, so it must be deterministic).
func (m *Machine) ResumeSurvivors() {
	for n := range m.Nodes {
		if m.live.Healthy(n) {
			m.Nodes[n].CPU.Resume()
		}
	}
}

// Recovered reports whether all expected recovery reports have arrived.
func (m *Machine) Recovered() bool { return m.recovered }

// Now returns the machine's simulated time: the partition coordinator's
// clock on a partitioned machine, the engine clock otherwise.
func (m *Machine) Now() sim.Time {
	if m.P != nil {
		return m.P.Now()
	}
	return m.E.Now()
}

// Advance runs the simulation to time t — the one driving entry point that
// works on both sequential and partitioned machines. Experiment drivers
// must use it (or RunUntilRecovered) instead of m.E.RunUntil.
func (m *Machine) Advance(t sim.Time) {
	if m.P != nil {
		m.P.RunUntil(t)
		return
	}
	m.E.RunUntil(t)
}

// RunUntilRecovered advances the simulation until recovery completes or the
// deadline passes; it reports whether recovery completed.
func (m *Machine) RunUntilRecovered(deadline sim.Time) bool {
	for !m.recovered && m.Now() < deadline {
		step := m.Now() + sim.Millisecond
		if step > deadline {
			step = deadline
		}
		m.Advance(step)
	}
	return m.recovered
}

// PhaseTimes aggregates recovery duration per phase across all reports,
// measured from the earliest recovery entry (the fault-detection moment).
type PhaseTimes struct {
	Start                sim.Time
	P1, P12, P123, Total sim.Time // cumulative, as plotted in Fig 5.5
	// WB and Scan split the coherence-recovery phase into its cache
	// flush and directory sweep components (Fig 5.6).
	WB, Scan               sim.Time
	MaxRounds, MaxIncoher  int
	Restarts, Participants int
}

// P2Time returns the dissemination-phase duration (P12 − P1).
func (pt PhaseTimes) P2Time() sim.Time { return pt.P12 - pt.P1 }

// P4Time returns the coherence-recovery duration (Total − P123).
func (pt PhaseTimes) P4Time() sim.Time { return pt.Total - pt.P123 }

// Aggregate computes Fig 5.5-style cumulative phase times from the reports.
func (m *Machine) Aggregate() PhaseTimes {
	var pt PhaseTimes
	first := true
	for _, r := range m.Reports() {
		if r.Isolated {
			continue
		}
		if first || r.Start < pt.Start {
			pt.Start = r.Start
		}
		first = false
	}
	for _, r := range m.Reports() {
		if r.Isolated {
			continue
		}
		pt.Participants++
		if d := r.P1End - pt.Start; d > pt.P1 {
			pt.P1 = d
		}
		if d := r.P2End - pt.Start; d > pt.P12 {
			pt.P12 = d
		}
		if d := r.P3End - pt.Start; d > pt.P123 {
			pt.P123 = d
		}
		if d := r.P4End - pt.Start; d > pt.Total {
			pt.Total = d
		}
		if d := r.FlushEnd - r.P3End; d > pt.WB {
			pt.WB = d
		}
		if d := r.P4End - r.FlushEnd; d > pt.Scan {
			pt.Scan = d
		}
		if r.Rounds > pt.MaxRounds {
			pt.MaxRounds = r.Rounds
		}
		if r.Incoherent > pt.MaxIncoher {
			pt.MaxIncoher = r.Incoherent
		}
		pt.Restarts += r.Restarts
	}
	return pt
}
