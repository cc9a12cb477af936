package machine

import (
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
)

// Compound-fault and split-brain tests (§4.1, §4.2).

func TestPowerLossRegionRecovery(t *testing.T) {
	cfg := DefaultConfig(16) // 4x4 mesh
	cfg.Seed = 41
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	m := New(cfg)
	// Lose power to nodes 5 and 6 (adjacent, interior): controllers,
	// routers and links all die at once.
	write := func(node int, addr uint64) {
		tok := m.Oracle.NextToken()
		a := coherenceAddr(addr)
		m.Nodes[node].Ctrl.Write(a, tok, func(r result) {
			if r.Err == nil {
				m.Oracle.Wrote(a, tok)
			}
		})
	}
	write(5, uint64(m.Space.Base(2))+0x100) // dirty line that dies with node 5
	write(1, uint64(m.Space.Base(6))+0x100) // line homed in the dead region
	m.E.Run()
	m.InjectAll(fault.PowerLoss(m.Topo, []int{5, 6}))
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x80))
	if !m.RunUntilRecovered(5 * sim.Second) {
		t.Fatalf("recovery incomplete: %d/%d", len(m.Reports()), len(m.Survivors()))
	}
	if len(m.Reports()) != 14 {
		t.Fatalf("reports = %d, want 14 survivors", len(m.Reports()))
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verify: %v", res)
	}
	if res.InaccessibleOK == 0 || res.Incoherent == 0 {
		t.Fatalf("expected inaccessible and incoherent lines: %v", res)
	}
}

func TestCableCutMinorityShutsDown(t *testing.T) {
	cfg := DefaultConfig(16) // 4x4 mesh: cut between columns 0 and 1
	cfg.Seed = 43
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	m := New(cfg)
	cut := fault.CableCut(m.Topo, 0) // isolates column 0: 4 nodes
	if len(cut) != 4 {
		t.Fatalf("cable cut = %d links, want 4", len(cut))
	}
	m.InjectAll(cut)
	// Both sides notice via cross-column traffic.
	m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(1))+0x80))
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(0))+0x80))
	if !m.RunUntilRecovered(10 * sim.Second) {
		t.Fatalf("recovery incomplete: %d/%d", len(m.Reports()), len(m.Survivors()))
	}
	// The machine tracks the majority side; let the minority island's
	// own (shutdown) recovery finish too before inspecting it.
	deadline := m.E.Now() + 10*sim.Second
	for len(m.Reports()) < 16 && m.E.Now() < deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
	}
	if len(m.Reports()) != 16 {
		t.Fatalf("reports = %d, want 16", len(m.Reports()))
	}
	// Column 0 is a 4/16 minority: its nodes must shut down rather than
	// recover a split-brain island (§4.2).
	minority := map[int]bool{0: true, 4: true, 8: true, 12: true}
	for n, r := range m.Reports() {
		if minority[n] && !r.ShutDown {
			t.Errorf("minority node %d should shut down", n)
		}
		if !minority[n] && r.ShutDown {
			t.Errorf("majority node %d should survive", n)
		}
	}
	// The majority side's view marks the minority down.
	for _, n := range []int{1, 2, 3} {
		if m.Nodes[n].Ctrl.NodeUp(0) {
			t.Errorf("node %d still sees minority node 0 up", n)
		}
	}
}

func TestHardwiredControllerSlowerP4(t *testing.T) {
	measure := func(hardwired bool) sim.Time {
		cfg := DefaultConfig(8)
		cfg.Seed = 47
		cfg.MemBytes = 1 << 20
		cfg.L2Bytes = 1 << 20
		cfg.Recovery.HardwiredController = hardwired
		m := New(cfg)
		m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
		m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x80))
		if !m.RunUntilRecovered(10 * sim.Second) {
			t.Fatal("recovery incomplete")
		}
		return m.Aggregate().P4Time()
	}
	flexible := measure(false)
	hardwired := measure(true)
	if hardwired <= flexible {
		t.Fatalf("hardwired controller should slow P4: flexible=%v hardwired=%v",
			flexible, hardwired)
	}
	// The §6.2 discussion implies a substantial but not catastrophic
	// penalty: expect roughly 2-6x on the P4 phase.
	r := float64(hardwired) / float64(flexible)
	if r < 1.5 || r > 10 {
		t.Fatalf("hardwired/flexible P4 ratio = %.1f, want ~2-6", r)
	}
}

// Small local aliases keep the test bodies readable.
type result = magic.Result

func coherenceAddr(a uint64) coherence.Addr { return coherence.Addr(a) }
