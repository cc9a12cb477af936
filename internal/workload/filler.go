// Package workload provides the programs the experiments run on simulated
// FLASH machines: the stand-alone cache-fill validation program of §5.2 and
// its partitioned-engine variant. The Hive parallel-make model of §5.1
// lives with the OS model, in internal/hive/make.go.
package workload

import (
	"math/rand"

	"flashfc/internal/coherence"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
)

// Filler is the §5.2 validation program: every processor fills half its
// cache with lines chosen at random from the valid address range, each
// fetched in shared or exclusive mode at random (exclusive fetches store a
// fresh token half the time, to give writebacks something to carry).
type Filler struct {
	M *machine.Machine
	// FillLines is the number of lines each node touches (default: half
	// the cache capacity, as in the paper).
	FillLines int
	// WriteFraction is the probability an exclusive fetch also stores.
	WriteFraction float64

	// OnHalfDone fires once when half of the fill operations have
	// completed — the moment the validation experiments inject their
	// fault, so that real transactions are in flight (§5.2).
	OnHalfDone func()

	rng      *rand.Rand
	pending  int
	total    int
	halfSeen bool
	done     func()
}

// NewFiller returns a filler for m with paper defaults.
func NewFiller(m *machine.Machine) *Filler {
	return &Filler{
		M:             m,
		FillLines:     m.Nodes[0].Cache.CapacityLines() / 2,
		WriteFraction: 0.5,
		rng:           rand.New(rand.NewSource(m.Cfg.Seed + 0x5eed)),
	}
}

// NewFillerSeeded returns a filler drawing from its own seed rather than
// the machine's. Forked runs use it for the per-run post-fork burst: every
// fork of a warm snapshot replays an identical warm-up, so the burst is the
// only place the run seed enters the workload.
func NewFillerSeeded(m *machine.Machine, seed int64) *Filler {
	f := NewFiller(m)
	f.rng = rand.New(rand.NewSource(seed + 0x5eed))
	return f
}

// Start submits the fill operations on every node; done fires when all
// processors have completed their fills. Every operation completes through
// one of two completions bound here, so a fill allocates no closure per op.
// Each node's program is built in one slice of its own that its CPU takes
// whole (a slice shared by every node would be pinned entire by one CPU
// that never drains, as a failed node's does), and each cache and home
// directory is sized for the lines the fill sends it before any issues.
func (f *Filler) Start(done func()) {
	f.done = done
	completed, stored := f.completed, f.stored
	totalLines := uint64(f.M.Cfg.Nodes) * f.M.Cfg.MemBytes / 128
	programs := make([][]proc.Op, len(f.M.Nodes))
	homed := make([]int, len(f.M.Nodes))
	for id := range programs {
		ops := make([]proc.Op, f.FillLines)
		for i := range ops {
			line := coherence.Addr(uint64(f.rng.Int63n(int64(totalLines))) * 128)
			op := proc.Op{Kind: proc.OpRead, Addr: line, DoneAt: completed}
			if f.rng.Intn(2) == 0 {
				if f.rng.Float64() < f.WriteFraction {
					tok := f.M.Oracle.NextToken()
					op = proc.Op{Kind: proc.OpWrite, Addr: line, Token: tok, DoneAt: stored}
				} else {
					op = proc.Op{Kind: proc.OpReadExclusive, Addr: line, DoneAt: completed}
				}
			}
			ops[i] = op
			homed[f.M.Space.Home(line)]++
		}
		programs[id] = ops
	}
	f.pending = len(programs) * f.FillLines
	f.total = f.pending
	submitPrograms(f.M, programs, homed)
	if f.pending == 0 {
		done()
	}
}

// submitPrograms sizes every node's cache for its program and every home's
// directory for the homed operations aimed at it, then hands each CPU its
// program whole.
func submitPrograms(m *machine.Machine, programs [][]proc.Op, homed []int) {
	for id, n := range m.Nodes {
		n.Cache.Reserve(len(programs[id]))
		n.Dir.Reserve(homed[id])
	}
	for id, n := range m.Nodes {
		n.CPU.SubmitAll(programs[id])
	}
}

// stored completes a fill store. A successful store completes with the
// token it stored (every write completion path returns it).
func (f *Filler) stored(line coherence.Addr, r magic.Result) {
	if r.Err == nil {
		// The store committed: it is now the expected content.
		f.M.Oracle.Wrote(line, r.Token)
	}
	f.completed(line, r)
}

// completed completes any fill operation.
func (f *Filler) completed(coherence.Addr, magic.Result) {
	f.pending--
	if !f.halfSeen && f.pending <= f.total/2 {
		f.halfSeen = true
		if f.OnHalfDone != nil {
			f.OnHalfDone()
		}
	}
	if f.pending == 0 && f.done != nil {
		d := f.done
		f.done = nil
		d()
	}
}

// Pending reports fill operations still outstanding.
func (f *Filler) Pending() int { return f.pending }

// TouchOp builds a single read of node target's memory: the minimal probe
// that makes a quiet fault observable (Fig 4.3's request-to-failed-node).
func TouchOp(m *machine.Machine, target int) proc.Op {
	return proc.Op{Kind: proc.OpRead, Addr: m.Space.Base(target) + 0x80}
}
