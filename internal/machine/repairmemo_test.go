package machine

import (
	"reflect"
	"slices"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/routing"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// countingStrategy is routing.Incremental with every RepairTables call
// recorded: the view and BFT root it was asked about and the Repair it
// handed out (the very slices the machine's memo then shares between agents).
// Registered in this test binary only.
type countingStrategy struct {
	routing.Strategy
	views   []*topology.View
	roots   []int
	repairs []routing.Repair
}

func (c *countingStrategy) Name() string { return "counting-test" }

func (c *countingStrategy) RepairTables(v *topology.View, bft *topology.BFT) routing.Repair {
	rep := c.Strategy.RepairTables(v, bft)
	c.views = append(c.views, v.Clone())
	c.roots = append(c.roots, bft.Root)
	c.repairs = append(c.repairs, rep)
	return rep
}

func (c *countingStrategy) reset() { c.views, c.roots, c.repairs = nil, nil, nil }

// checkUnmutated recomputes every recorded repair from its recorded key: a
// difference means somebody wrote to tables the memo shares.
func (c *countingStrategy) checkUnmutated(t *testing.T) {
	t.Helper()
	for i, v := range c.views {
		if fresh := c.Strategy.RepairTables(v, v.BFS(c.roots[i])); !reflect.DeepEqual(c.repairs[i], fresh) {
			t.Errorf("repair %d was mutated after the strategy returned it", i)
		}
	}
}

var counting = &countingStrategy{Strategy: routing.Incremental}

func init() { routing.Register(counting) }

func countingConfig(nodes int, seed int64) Config {
	cfg := DefaultConfig(nodes)
	cfg.Seed = seed
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.Routing = counting.Name()
	return cfg
}

// TestRepairComputedOncePerView: the 127 survivors of a 128-node node
// failure all end P2 with the same (view, BFT), so the machine computes the
// P3 repair once; each of them is still counted (and charged) as patching
// its own row.
func TestRepairComputedOncePerView(t *testing.T) {
	counting.reset()
	m := New(countingConfig(128, 41))
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 77})
	m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(77))+0x100))
	if !m.RunUntilRecovered(5 * sim.Second) {
		t.Fatalf("recovery did not complete; reports=%d/%d", len(m.Reports()), len(m.Survivors()))
	}
	if len(m.Reports()) != 127 {
		t.Fatalf("reports = %d, want 127", len(m.Reports()))
	}
	if len(counting.repairs) != 1 {
		t.Fatalf("RepairTables ran %d times for one converged view, want 1", len(counting.repairs))
	}
	if m.memo.RepairLookups != 127 || m.memo.Repairs != 1 {
		t.Fatalf("memo repair lookups/misses = %d/%d, want 127/1", m.memo.RepairLookups, m.memo.Repairs)
	}
	want := uint64(127 * counting.repairs[0].PatchedPerRouter[0])
	if got := m.Metrics.Counter("core.routes_patched").Value(); got != want {
		t.Fatalf("core.routes_patched = %d, want %d (per agent, not per repair)", got, want)
	}
	counting.checkUnmutated(t)
}

// TestSecondFaultMidP3MissesMemo: a router dies after the first agents have
// taken the one-fault repair from the memo. The restarted epoch converges on
// a new view, which must miss and install tables computed from that view.
func TestSecondFaultMidP3MissesMemo(t *testing.T) {
	counting.reset()
	m := New(countingConfig(16, 43))
	m.Inject(fault.Fault{Type: fault.RouterFailure, Router: 5})
	m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x100))
	for m.memo.Repairs == 0 {
		if m.E.Now() > recoveryDeadline {
			t.Fatal("no agent reached route reprogramming")
		}
		m.E.RunUntil(m.E.Now() + sim.Microsecond)
	}
	if m.recovered {
		t.Fatal("first recovery already over: the second fault would not land mid-P3")
	}
	m.Inject(fault.Fault{Type: fault.RouterFailure, Router: 10})
	if !m.RunUntilRecovered(5 * sim.Second) {
		t.Fatalf("recovery did not complete after second fault; reports=%d/%d",
			len(m.Reports()), len(m.Survivors()))
	}
	if len(m.Survivors()) != 14 {
		t.Fatalf("survivors = %d, want 14", len(m.Survivors()))
	}
	for _, n := range m.Survivors() {
		if r := m.Reports()[n]; r == nil || r.Restarts == 0 || r.Isolated || r.ShutDown {
			t.Fatalf("survivor %d did not restart into a completed recovery: %+v", n, r)
		}
	}
	if len(counting.repairs) != 2 || m.memo.Repairs != 2 {
		t.Fatalf("RepairTables ran %d times (%d misses), want 2: one per view",
			len(counting.repairs), m.memo.Repairs)
	}
	t.Logf("memo repair lookups=%d misses=%d; state lookups=%d misses=%d",
		m.memo.RepairLookups, m.memo.Repairs, m.memo.Lookups, m.memo.Misses)
	one, two := counting.views[0], counting.views[1]
	if one.RouterUp[5] || !one.RouterUp[10] {
		t.Fatalf("first repair's view should lack router 5 only: %v", one.RouterUp)
	}
	if !slices.Equal(two.RouterUp, m.live.fabric.RouterUp) || !slices.Equal(two.LinkUp, m.live.fabric.LinkUp) {
		t.Fatalf("second repair's view is not the surviving topology:\n got %v %v\nwant %v %v",
			two.RouterUp, two.LinkUp, m.live.fabric.RouterUp, m.live.fabric.LinkUp)
	}
	fresh := routing.Incremental.RepairTables(m.live.fabric, m.live.fabric.BFS(0))
	installed := m.InstalledTables()
	for r, up := range m.live.fabric.RouterUp {
		if up && !slices.Equal(installed[r], fresh.Tables[r]) {
			t.Fatalf("router %d runs a stale row:\n got %v\nwant %v", r, installed[r], fresh.Tables[r])
		}
	}
	counting.checkUnmutated(t)
}

// TestEveryMachineOwnsItsMemo: the memo is host-side cache — a snapshot does
// not carry it and each fork wires a fresh one, so forks recovering on
// parallel workers share nothing.
func TestEveryMachineOwnsItsMemo(t *testing.T) {
	src := New(smallConfig(47))
	snap := src.Snapshot()
	if snap.Cfg.Recovery.Memo != nil {
		t.Fatal("snapshot carries the source machine's memo")
	}
	a, b := FromSnapshot(snap, nil), FromSnapshotRouting(snap, nil, "incremental")
	for _, m := range []*Machine{src, a, b} {
		if m.memo == nil {
			t.Fatal("machine built without a memo")
		}
	}
	if a.memo == src.memo || b.memo == src.memo || a.memo == b.memo {
		t.Fatal("two machines share one memo")
	}
	a.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
	a.Nodes[1].CPU.Submit(readOp(a, uint64(a.Space.Base(5))+0x100))
	if !a.RunUntilRecovered(recoveryDeadline) {
		t.Fatal("fork did not recover")
	}
	if a.memo.Repairs != 1 || b.memo.Lookups != 0 || src.memo.Lookups != 0 {
		t.Fatalf("a fork's recovery touched another machine's memo: fork %d/%d, sibling %d, source %d",
			a.memo.RepairLookups, a.memo.Repairs, b.memo.Lookups, src.memo.Lookups)
	}
}
