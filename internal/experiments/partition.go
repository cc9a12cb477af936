package experiments

import (
	"fmt"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
)

// PartitionConfig shapes a partitioned-simulation scenario: the fault-free
// fill run that demonstrates intra-machine speedup (PartitionFill) and the
// boundary-link fault run that exercises recovery across a region cut
// (PartitionBoundaryFault).
type PartitionConfig struct {
	Nodes    int
	MemBytes uint64
	L2Bytes  uint64
	// OpsPerNode is the number of accesses each node issues; 0 uses the
	// workload default (half the cache capacity).
	OpsPerNode int
	// Partitions is the intra-machine worker count (machine.Config.
	// Partitions); 0 runs the classic sequential engine for comparison.
	Partitions int
	// RegionLinkExtra overrides the inter-region wire latency; 0 uses
	// machine.DefaultRegionLinkExtra.
	RegionLinkExtra sim.Time
	Deadline        sim.Time
	// Trace, when non-nil, collects the run's spans and points.
	Trace *trace.Tracer
}

// DefaultPartitionConfig returns the 1024-node scaling scenario: a 32×32
// mesh — three orders of magnitude past the paper's largest measured
// machine — with a light per-node fill so single runs stay tractable.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{
		Nodes:      1024,
		MemBytes:   64 << 10,
		L2Bytes:    16 << 10,
		OpsPerNode: 48,
		Partitions: 4,
		Deadline:   2 * sim.Second,
	}
}

// PartitionResult is one partitioned-scenario run.
type PartitionResult struct {
	// Completed / Total count workload accesses that finished by the
	// deadline.
	Completed, Total int64
	// Events is the number of simulated events fired across all regions.
	Events uint64
	// Regions is the machine's fixed region count (1 on a sequential run).
	Regions int
	// Barriers and Merged are the partition coordinator's window-barrier
	// and cross-region-merge counts (0 on a sequential run).
	Barriers, Merged uint64
	Now              sim.Time
	Metrics          *metrics.Snapshot
	Note             string
}

// OK reports whether every submitted access completed.
func (r *PartitionResult) OK() bool { return r.Total > 0 && r.Completed == r.Total }

// buildPartitionMachine constructs the scenario machine for cfg.
func buildPartitionMachine(cfg PartitionConfig, seed int64) *machine.Machine {
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Trace = cfg.Trace
	mc.Partitions = cfg.Partitions
	mc.RegionLinkExtra = cfg.RegionLinkExtra
	mc.ParallelWindows = true
	return machine.New(mc)
}

// fillResult scrapes the common result fields from a finished run.
func fillResult(m *machine.Machine, pf *workload.PartitionFill, res *PartitionResult) {
	res.Completed = pf.Total() - pf.Remaining()
	res.Total = pf.Total()
	res.Now = m.Now()
	res.Events = eventsFired(m)
	res.Regions = 1
	if m.P != nil {
		res.Regions = m.P.Regions()
		res.Barriers = m.P.Barriers()
		res.Merged = m.P.Merged()
	}
	res.Metrics = m.MetricsSnapshot()
}

// PartitionFill runs the fault-free partitioned fill scenario: every node
// fills its cache with mostly-local lines, regions execute their windows on
// cfg.Partitions parallel workers, and the result is bit-identical at any
// worker count (the speedup claim is measured by the ledger's fill1024 vs
// fill1024-p2 workloads, the identity claim by the machine determinism
// tests).
func PartitionFill(cfg PartitionConfig, seed int64) *PartitionResult {
	m := buildPartitionMachine(cfg, seed)
	pf := workload.NewPartitionFill(m)
	if cfg.OpsPerNode > 0 {
		pf.OpsPerNode = cfg.OpsPerNode
	}
	pf.Start()
	for !pf.Done() && m.Now() < cfg.Deadline {
		m.Advance(m.Now() + sim.Millisecond)
	}
	res := &PartitionResult{}
	fillResult(m, pf, res)
	if !res.OK() {
		res.Note = fmt.Sprintf("%d/%d accesses incomplete after %v",
			pf.Remaining(), pf.Total(), cfg.Deadline)
	}
	return res
}

// BoundaryLink returns a deterministic inter-region link of a partitioned
// machine: the lowest-numbered link whose endpoints lie in different
// regions. It panics if the machine has no region boundary (sequential
// machine or single-region decomposition).
func BoundaryLink(m *machine.Machine) int {
	if m.Regions != nil {
		for id := range m.Topo.Links() {
			if m.Regions.CrossRegion(id) {
				return id
			}
		}
	}
	panic("experiments: machine has no inter-region boundary link")
}

// PartitionBoundaryFault runs the region-cut fault scenario: start the fill
// workload in parallel windows, then fail a link that is exactly on a
// partition boundary. Injection switches the run to the deterministic
// global interleave, recovery proceeds across the cut, and the run
// script's second half judges and sweeps the machine — exercising the one
// place where fault containment and partition boundaries coincide.
func PartitionBoundaryFault(cfg PartitionConfig, seed int64) *ValidationResult {
	m := buildPartitionMachine(cfg, seed)
	link := BoundaryLink(m)
	f := fault.Fault{Type: fault.LinkFailure, Link: link}
	pf := workload.NewPartitionFill(m)
	if cfg.OpsPerNode > 0 {
		pf.OpsPerNode = cfg.OpsPerNode
	}
	pf.Start()
	// Let roughly half the fill complete in parallel windows, then inject.
	for pf.Remaining() > pf.Total()/2 && m.Now() < cfg.Deadline {
		m.Advance(m.Now() + sim.Millisecond)
	}
	m.Inject(f)
	// Provoke detection with a read across the dead link.
	kick := m.Topo.Links()[link].B
	m.Nodes[m.Topo.Links()[link].A].CPU.Submit(workload.TouchOp(m, kick))
	s := Script{M: m, Budget: cfg.Deadline, Stride: cfg.Stride(), Record: &ValidationResult{Fault: f}}
	s.recoverAndJudge()
	return s.Record
}

// Stride returns the verification stride for the scenario size: full sweep
// up to 64 nodes, sampled beyond (the 1024-node sweep would dominate the
// run).
func (cfg PartitionConfig) Stride() int {
	if cfg.Nodes <= 64 {
		return 1
	}
	return 8
}
