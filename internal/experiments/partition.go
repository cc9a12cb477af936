package experiments

import (
	"fmt"

	"flashfc/internal/machine"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
	"flashfc/internal/workload"
)

// PartitionConfig shapes the partitioned-simulation scenario: the
// fault-free fill run that demonstrates intra-machine speedup
// (PartitionFill), the only workload a partitioned machine runs.
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

// fillResult scrapes the result fields from a finished run.
func fillResult(m *machine.Machine, pf *workload.PartitionFill, res *PartitionResult) {
	res.Completed = pf.Total() - pf.Remaining()
	res.Total = pf.Total()
	res.Now = m.Now()
	res.Events = m.E.EventsFired()
	res.Regions = 1
	if m.P != nil {
		res.Events = m.P.EventsFired()
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
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.Seed = seed
	mc.MemBytes = cfg.MemBytes
	mc.L2Bytes = cfg.L2Bytes
	mc.Trace = cfg.Trace
	mc.Partitions = cfg.Partitions
	mc.RegionLinkExtra = cfg.RegionLinkExtra
	mc.ParallelWindows = true
	m := machine.New(mc)
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
