package sim

import "fmt"

// EngineSnapshot is a frozen image of a quiescent engine: everything a
// fresh engine needs to continue the simulation bit-identically to the
// source — the clock, the sequence and fired counters (event order and the
// sim.events_fired metric), the compaction count, and the random stream
// expressed as (seed, draws) so a fork can replay it without sharing the
// generator.
//
// Snapshots exist only at quiescent points (Pending() == 0): events hold
// closures over live component state and cannot be captured mid-flight.
// The machine layer asserts the stronger whole-machine quiescence; the
// engine enforces its own part and panics otherwise.
type EngineSnapshot struct {
	Seed        int64
	Draws       uint64
	Now         Time
	Seq         uint64
	Fired       uint64
	Compactions uint64
}

// Snapshot captures the engine at a quiescent point. It panics if live
// events remain. As a side effect it purges cancelled-event residue from
// the source engine — at quiescence every resident record is cancelled —
// so the source and any engine rehydrated from the snapshot hold the same
// (empty) structures and therefore hit identical compaction points from
// here on. The purge is bookkeeping, not a compaction: the
// sim.heap_compactions counter is untouched.
func (e *Engine) Snapshot() EngineSnapshot {
	if e.live != 0 {
		panic(fmt.Sprintf("sim: Snapshot with %d live events; snapshots require a quiescent engine", e.live))
	}
	e.purge() // every popped slot of the drain run is already nil
	e.drain = e.drain[:0]
	e.drainPos = 0
	e.drainCeil = 0
	return EngineSnapshot{
		Seed:        e.seed,
		Draws:       e.src.n,
		Now:         e.now,
		Seq:         e.seq,
		Fired:       e.fired,
		Compactions: e.compactions,
	}
}

// NewEngineFromSnapshot rehydrates an independent engine from a snapshot:
// the random stream is re-seeded and fast-forwarded by the recorded draw
// count, and the clock and counters resume where the source left off. The
// fork shares nothing with the source engine.
func NewEngineFromSnapshot(s EngineSnapshot) *Engine {
	e := NewEngine(s.Seed)
	for i := uint64(0); i < s.Draws; i++ {
		e.src.src.Uint64()
	}
	e.src.n = s.Draws
	e.now = s.Now
	e.seq = s.Seq
	e.fired = s.Fired
	e.compactions = s.Compactions
	return e
}
