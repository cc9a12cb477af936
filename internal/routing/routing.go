// Package routing makes the interconnect-recovery routing policy a
// strategy: one object owns the post-fault table repair and the drain
// discipline P3 runs before new tables take effect; every strategy starts
// from the topology's default (pristine) tables, which the fabric installs
// itself. The paper's behaviour — dimension-order/e-cube pristine routing,
// a full two-phase τ drain, and a complete up*/down* rewrite on the
// surviving graph (§4.4) — is the `paper` strategy and stays byte-identical
// to the pre-strategy code path. Alternatives trade the global drain for
// speed: `incremental` patches only the routes a fault actually broke
// behind a single-phase drain, and `adaptive` reroutes around the fault
// region without draining at all. Every strategy must keep the channel-
// dependency graph of its installed tables acyclic (deadlock freedom);
// repairs that cannot, fall back to the full up*/down* rewrite.
package routing

import (
	"fmt"
	"sort"

	"flashfc/internal/topology"
)

// DrainKind is the discipline P3 applies between fault isolation and
// installing repaired tables.
type DrainKind int

const (
	// DrainFull is the paper's two-phase agreement: every node waits for τ
	// of normal-lane silence, votes, then confirms in a second barrier that
	// nothing arrived since the vote (§4.4). Restarted until clean.
	DrainFull DrainKind = iota
	// DrainPartial is a single-phase drain: wait for τ of silence, then one
	// barrier — no confirm phase, so a packet racing the vote may still be
	// in flight when tables change.
	DrainPartial
	// DrainNone installs repaired tables immediately after isolation;
	// in-flight packets are rerouted (or dropped) mid-journey.
	DrainNone
)

func (k DrainKind) String() string {
	switch k {
	case DrainFull:
		return "full"
	case DrainPartial:
		return "partial"
	case DrainNone:
		return "none"
	default:
		return "?"
	}
}

// Repair is the outcome of a strategy's post-fault table computation. It is
// immutable once returned: one Repair is shared read-only by every agent of
// a machine whose view it answers (core.Memo), so nothing may write to
// Tables or PatchedPerRouter afterwards.
type Repair struct {
	// Tables is the complete table set to install (strategies that patch
	// still return full tables; unpatched entries equal the pristine ones).
	Tables topology.Tables
	// PatchedPerRouter[r] is how many entries of router r's row the repair
	// rewrites — the per-node reprogramming work P3 charges for. The paper
	// strategy rewrites whole rows, so every live router counts n.
	PatchedPerRouter []int
	// Fallback reports that the strategy abandoned its cheaper repair (the
	// patched tables' channel-dependency graph had a cycle, or region
	// avoidance disconnected live routers) and installed the full
	// up*/down* rewrite instead.
	Fallback bool
}

// TotalPatched sums the per-router rewrite counts.
func (r Repair) TotalPatched() int {
	n := 0
	for _, p := range r.PatchedPerRouter {
		n += p
	}
	return n
}

// Strategy owns one routing + reprogramming policy end to end.
type Strategy interface {
	// Name is the registry key (`-routing` flag value).
	Name() string
	// RepairTables computes the tables to install on the surviving graph.
	// v is the stabilized post-dissemination view, bft the dissemination
	// BFT rooted at the elected root. Deterministic: every agent computes
	// the identical repair from its converged view — which is what lets a
	// machine compute it once and share it. v and bft are read-only.
	RepairTables(v *topology.View, bft *topology.BFT) Repair
	// Drain is the discipline P3 runs before installing the repair.
	Drain() DrainKind
}

var registry = map[string]Strategy{}

// Register adds a strategy under its name; duplicate names panic.
func Register(s Strategy) {
	name := s.Name()
	if name == "" {
		panic("routing: strategy with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("routing: duplicate strategy %q", name))
	}
	registry[name] = s
}

// Get resolves a strategy by name; "" means the paper default.
func Get(name string) (Strategy, error) {
	if name == "" {
		name = "paper"
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("routing: unknown strategy %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered strategies, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
