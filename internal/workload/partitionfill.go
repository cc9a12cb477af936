package workload

import (
	"math/rand"
	"sync/atomic"

	"flashfc/internal/coherence"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
)

// PartitionFill is the fill workload for partitioned machines. Filler keeps
// a machine-wide pending count that every completion callback mutates, which
// is fine on one engine but a data race when regions run on parallel
// workers. PartitionFill is region-safe by construction:
//
//   - each node draws its accesses from its own rand stream, derived from
//     (machine seed, node id), so the program is identical no matter how
//     node start-up interleaves;
//   - completion callbacks touch nothing but an atomic remaining counter —
//     no oracle writes, no shared RNG, no half-done hooks;
//   - drivers poll Done() between Advance windows instead of receiving a
//     callback from inside one.
//
// Accesses are mostly local (LocalFraction of them hit the node's own
// memory); the rest read a uniformly random remote node's memory, which on
// a striped mesh makes a proportional share of traffic cross region
// boundaries — the load the lookahead windows must absorb.
type PartitionFill struct {
	M *machine.Machine
	// OpsPerNode is the number of accesses each node issues (default: half
	// the cache capacity, matching Filler).
	OpsPerNode int
	// LocalFraction is the probability an access targets the issuing
	// node's own memory (default 0.875, i.e. 1/8 remote).
	LocalFraction float64
	// ExclusiveFraction is the probability an access fetches exclusive
	// rather than shared (default 0.5). Exclusive fetches never store:
	// oracle bookkeeping is machine-wide state that parallel completion
	// callbacks must not touch.
	ExclusiveFraction float64

	remaining atomic.Int64
	total     int64
}

// NewPartitionFill returns a fill workload for m with defaults.
func NewPartitionFill(m *machine.Machine) *PartitionFill {
	return &PartitionFill{
		M:                 m,
		OpsPerNode:        m.Nodes[0].Cache.CapacityLines() / 2,
		LocalFraction:     0.875,
		ExclusiveFraction: 0.5,
	}
}

// Start submits every node's accesses, one slice per node as Filler.Start
// does. Call it before the first Advance; poll Done between windows.
func (f *PartitionFill) Start() {
	nodes := f.M.Cfg.Nodes
	lines := int64(f.M.Cfg.MemBytes / 128)
	f.total = int64(nodes) * int64(f.OpsPerNode)
	f.remaining.Store(f.total)
	done := f.complete // one method value for every op, not one per op
	// One generator, reseeded per node: a source is 4.9 KB, and reseeding
	// gives the stream a fresh one would.
	rng := rand.New(rand.NewSource(0))
	programs := make([][]proc.Op, nodes)
	homed := make([]int, nodes)
	for id := range programs {
		rng.Seed(f.M.Cfg.Seed ^ (int64(id)+1)*0x5851f42d4c957f2d)
		ops := make([]proc.Op, f.OpsPerNode)
		for i := range ops {
			target := id
			if rng.Float64() >= f.LocalFraction {
				target = rng.Intn(nodes)
			}
			addr := f.M.Space.Base(target) + coherence.Addr(rng.Int63n(lines)*128)
			op := proc.Op{Kind: proc.OpRead, Addr: addr, Done: done}
			if rng.Float64() < f.ExclusiveFraction {
				op.Kind = proc.OpReadExclusive
			}
			ops[i] = op
			homed[target]++
		}
		programs[id] = ops
	}
	submitPrograms(f.M, programs, homed)
}

func (f *PartitionFill) complete(magic.Result) { f.remaining.Add(-1) }

// Done reports whether every access has completed (or failed).
func (f *PartitionFill) Done() bool { return f.remaining.Load() == 0 }

// Remaining reports accesses still outstanding.
func (f *PartitionFill) Remaining() int64 { return f.remaining.Load() }

// Total reports the number of accesses submitted by Start.
func (f *PartitionFill) Total() int64 { return f.total }
