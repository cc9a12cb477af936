package experiments

import (
	"testing"

	"flashfc/internal/machine"
)

// Every functioning node ends P2 with the same state, so on recovery128's
// two configs — a node failure on the 128-node mesh and hypercube — the
// machine's memo computes the view, the tree (the bound's and the final
// one share the root) and the P3 repair once, and every other agent's
// lookup hits.
func TestRecovery128DerivesOncePerMachine(t *testing.T) {
	for _, topo := range []machine.TopoKind{machine.TopoMesh, machine.TopoHypercube} {
		cfg := DefaultScalingConfig(128)
		cfg.Topo = topo
		s := scalingScript(cfg)
		if p := scalingPoint(s); !p.OK {
			t.Fatal("recovery incomplete")
		}
		m := s.M.Memo()
		t.Logf("topo %d: %d state lookups, %d states, %d views, %d trees, %d repairs of %d asked",
			topo, m.Lookups, m.Misses, m.Views, m.Trees, m.Repairs, m.RepairLookups)
		if m.Misses != 1 || m.Views != 1 || m.Trees != 1 || m.Repairs != 1 {
			t.Fatalf("topo %d: %d states, %d views, %d trees and %d repairs computed, want one of each",
				topo, m.Misses, m.Views, m.Trees, m.Repairs)
		}
		if m.Lookups < 127 || m.RepairLookups != 127 {
			t.Fatalf("topo %d: %d state lookups and %d repair lookups, want every one of the 127 agents",
				topo, m.Lookups, m.RepairLookups)
		}
	}
}
