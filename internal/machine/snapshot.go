package machine

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/core"
	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
)

// NodeSnapshot freezes one node's durable state. Mem and Dir are frozen
// copy-on-write base images — read-only once taken, safely shared by the
// source machine and every fork. Cache is a private deep copy (caches are
// small and mutate heavily, so COW buys nothing there).
type NodeSnapshot struct {
	Mem   map[coherence.Addr]uint64
	Dir   map[coherence.Addr]*coherence.DirEntry
	Cache *coherence.Cache
	Ctrl  *magic.Snapshot
	CPU   proc.Snapshot
}

// Snapshot is a frozen machine at a quiescent, pre-fault point. It is
// immutable once taken: FromSnapshot may be called on it any number of
// times, concurrently, and each call yields an independent machine that
// continues bit-identically to the source. The source machine itself also
// continues unaffected (its memory and directory images turn copy-on-write
// over the shared frozen bases).
//
// Not captured: Cfg.Trace and OnAllRecovered. A snapshot carries no trace:
// warm-ups run untraced, and each fork records into the tracer passed to
// FromSnapshot, from the fork on. Re-install OnAllRecovered on the fork if
// needed. Callback function
// values inside Cfg (Recovery.OnEnter etc.) are carried as-is and must not
// close over per-run state.
type Snapshot struct {
	Cfg    Config
	Engine sim.EngineSnapshot
	// Regions holds the per-region engine snapshots of a partitioned
	// machine (Regions[0] == Engine); nil on sequential machines, keeping
	// their snapshot format unchanged.
	Regions []sim.EngineSnapshot `json:",omitempty"`
	Net     *interconnect.Snapshot
	Nodes   []NodeSnapshot
	Oracle  *Oracle
	Metrics *metrics.Registry
}

// Snapshot captures the machine's full durable state. The machine must be
// quiescent and pre-fault: no pending events, no injected faults, no
// recovery in progress or completed, every agent idle in epoch 0. Each
// layer asserts its own share of that contract and panics with a
// description of what is still in flight; the returned snapshot is then
// complete by construction — nothing transient existed to lose.
func (m *Machine) Snapshot() *Snapshot {
	if m.P != nil {
		if p := m.P.Pending(); p != 0 {
			panic(fmt.Sprintf("machine: snapshot with %d events pending across regions", p))
		}
	} else if p := m.E.Pending(); p != 0 {
		panic(fmt.Sprintf("machine: snapshot with %d events pending", p))
	}
	switch {
	case m.live.Faults() > 0:
		panic(fmt.Sprintf("machine: snapshot after %d faults", m.live.Faults()))
	case m.recovered || m.lastEpoch != 0:
		panic(fmt.Sprintf("machine: snapshot after recovery (epoch %d)", m.lastEpoch))
	case len(m.Reports()) > 0:
		panic("machine: snapshot with recovery in progress")
	}
	cfg := m.Cfg
	cfg.Trace = nil
	s := &Snapshot{
		Cfg:     cfg,
		Engine:  m.E.Snapshot(),
		Net:     m.Net.Snapshot(),
		Nodes:   make([]NodeSnapshot, m.Cfg.Nodes),
		Oracle:  m.Oracle.Clone(),
		Metrics: m.Metrics.Clone(),
	}
	if m.P != nil {
		s.Regions = make([]sim.EngineSnapshot, m.P.Regions())
		for i := range s.Regions {
			s.Regions[i] = m.P.Region(i).Snapshot()
		}
	}
	for i, n := range m.Nodes {
		if ph, ep := n.Agent.Phase(), n.Agent.Epoch(); ph != core.PhaseIdle || ep != 0 {
			panic(fmt.Sprintf("machine: snapshot with agent %d in phase %v epoch %d", i, ph, ep))
		}
		s.Nodes[i] = NodeSnapshot{
			Mem:   n.Mem.Freeze(),
			Dir:   n.Dir.Freeze(),
			Cache: n.Cache.Clone(),
			Ctrl:  n.Ctrl.Snapshot(),
			CPU:   n.CPU.Snapshot(),
		}
	}
	return s
}

// FromSnapshot rehydrates an independent machine from a snapshot in
// O(non-memory state): memory and directory images are shared
// copy-on-write with the snapshot rather than copied, and the fork then
// pays only for the lines its run changes. Reads, drops and the P4
// directory sweeps work on the shared image in place; only a line whose
// state the run changes is copied into the fork. Caches and the oracle
// are copied eagerly, and a flushed cache releases its storage. tr, which
// may be nil, becomes the fork's tracer as given.
func FromSnapshot(s *Snapshot, tr *trace.Tracer) *Machine {
	cfg := s.Cfg
	cfg.Trace = tr
	return build(cfg, s)
}

// FromSnapshotRouting is FromSnapshot with the routing strategy overridden
// on the fork. Router tables are not part of the interconnect snapshot
// (they are rebuilt at construction), and all registered strategies share
// the same pristine tables, so a quiescent pre-fault snapshot forks
// bit-identically under any strategy until the first fault — the property
// the head-to-head routing campaigns rely on to replay one warm-up under
// every strategy.
func FromSnapshotRouting(s *Snapshot, tr *trace.Tracer, routing string) *Machine {
	cfg := s.Cfg
	cfg.Trace = tr
	cfg.Routing = routing
	return build(cfg, s)
}
