package machine

import (
	"reflect"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/core"
	"flashfc/internal/fault"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// readOp builds a read operation for tests.
func readOp(m *Machine, addr uint64) proc.Op {
	return proc.Op{Kind: proc.OpRead, Addr: coherence.Addr(addr)}
}

const recoveryDeadline = 2 * sim.Second

// smallConfig returns an 8-node machine with small caches/memories so the
// tests stay fast while exercising every code path.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(8)
	cfg.Seed = seed
	cfg.MemBytes = 64 << 10 // 64 KB/node: 512 lines
	cfg.L2Bytes = 16 << 10  // 128 lines
	return cfg
}

func TestMeshShape(t *testing.T) {
	cases := map[int][2]int{
		2: {2, 1}, 4: {2, 2}, 8: {4, 2}, 16: {4, 4},
		32: {8, 4}, 64: {8, 8}, 128: {16, 8},
	}
	for n, want := range cases {
		w, h := MeshShape(n)
		if w != want[0] || h != want[1] {
			t.Errorf("MeshShape(%d) = %d,%d want %d,%d", n, w, h, want[0], want[1])
		}
	}
}

// InstalledTables reads the fabric's rows back through RouterTable: on a
// pristine machine they are the topology's default tables, and a row
// installed through SetRouterTable comes back as installed.
func TestInstalledTablesRoundTrip(t *testing.T) {
	m := New(smallConfig(1))
	want := topology.DefaultTables(m.Topo)
	if got := m.InstalledTables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pristine installed tables differ from the defaults:\n got %v\nwant %v", got, want)
	}
	v := topology.NewView(m.Topo)
	v.FailRouter(5)
	repair := topology.UpDownTables(v, v.BFS(0))
	m.Net.SetRouterTable(2, repair[2])
	want[2] = repair[2]
	if got := m.InstalledTables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("installed tables after one repaired row:\n got %v\nwant %v", got, want)
	}
}

func TestFalseAlarmRecoveryNoDataLoss(t *testing.T) {
	m := New(smallConfig(7))
	// Write a few lines first so the flush has real work.
	for i, n := range m.Nodes {
		addr := m.Space.Base((i+3)%8) + 0x200
		tok := m.Oracle.NextToken()
		a, tk := addr, tok
		n.Ctrl.Write(addr, tok, func(r magic.Result) {
			if r.Err == nil {
				m.Oracle.Wrote(a, tk)
			}
		})
	}
	m.E.Run()
	m.Inject(fault.Fault{Type: fault.FalseAlarm, Node: 3})
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatalf("recovery did not complete; reports=%d expecting=%d", len(m.Reports()), len(m.Survivors()))
	}
	if got := len(m.Reports()); got != 8 {
		t.Fatalf("reports = %d, want 8", got)
	}
	for _, r := range m.Reports() {
		if r.ShutDown || r.Isolated {
			t.Fatalf("false alarm must not shut anything down: %+v", r)
		}
		if r.Incoherent != 0 {
			t.Fatalf("false alarm must not mark lines incoherent: %+v", r)
		}
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
	if res.Incoherent != 0 {
		t.Fatalf("no line may be incoherent after a false alarm: %v", res)
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	m := New(smallConfig(11))
	// Node 5 writes lines homed on node 2, then dies: those lines must
	// become incoherent. Node 1 writes lines homed on node 5: those become
	// inaccessible.
	var okWrites int
	write := func(node int, addr uint64) {
		tok := m.Oracle.NextToken()
		a := coherence.Addr(addr)
		m.Nodes[node].Ctrl.Write(a, tok, func(r magic.Result) {
			if r.Err == nil {
				m.Oracle.Wrote(a, tok)
				okWrites++
			}
		})
	}
	base2 := uint64(m.Space.Base(2))
	base5 := uint64(m.Space.Base(5))
	write(5, base2+0x100)
	write(5, base2+0x400)
	write(1, base5+0x100)
	m.E.Run()
	if okWrites != 3 {
		t.Fatalf("writes completed = %d, want 3", okWrites)
	}

	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
	// Detection: node 1 touches node 5's memory and times out.
	m.Nodes[1].CPU.Submit(readOp(m, base5+0x800))
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatalf("recovery did not complete; reports=%d/%d", len(m.Reports()), len(m.Survivors()))
	}
	if len(m.Reports()) != 7 {
		t.Fatalf("reports = %d, want 7 (survivors)", len(m.Reports()))
	}
	// The survivors must all agree node 5 is down.
	for n, r := range m.Reports() {
		if r.ShutDown {
			t.Fatalf("node %d should not shut down", n)
		}
		if m.Nodes[n].Ctrl.NodeUp(5) {
			t.Fatalf("node %d's node map still shows 5 up", n)
		}
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
	if res.Incoherent < 2 {
		t.Fatalf("lines written by the dead node should be incoherent: %v", res)
	}
	if res.InaccessibleOK == 0 {
		t.Fatalf("lines homed on the dead node should be inaccessible: %v", res)
	}
}

func TestInfiniteLoopRecovery(t *testing.T) {
	m := New(smallConfig(13))
	base3 := uint64(m.Space.Base(3))
	m.Inject(fault.Fault{Type: fault.InfiniteLoop, Node: 3})
	// Hammer the wedged node so traffic backs up, then recovery triggers
	// via timeout on some requester.
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue
		}
		m.Nodes[i].CPU.Submit(readOp(m, base3+uint64(i)*0x100))
	}
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatalf("recovery did not complete; reports=%d/%d", len(m.Reports()), len(m.Survivors()))
	}
	if m.Net.InFlight() != 0 {
		t.Fatalf("fabric not drained: %d in flight", m.Net.InFlight())
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
}

func TestRouterFailureRecovery(t *testing.T) {
	m := New(smallConfig(17))
	// Router 6 dies: node 6 is cut off (mesh 4x2: node 6 at (2,1)).
	m.Inject(fault.Fault{Type: fault.RouterFailure, Router: 6})
	m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(6))+0x100))
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatalf("recovery did not complete; reports=%d/%d", len(m.Reports()), len(m.Survivors()))
	}
	if len(m.Reports()) != 7 {
		t.Fatalf("reports = %d, want 7", len(m.Reports()))
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
	// Connectivity among survivors must be restored.
	for i := 0; i < 8; i++ {
		if i == 6 {
			continue
		}
		done := false
		m.Nodes[0].Ctrl.Read(m.Space.Base(i)+0x40, func(r magic.Result) { done = r.Err == nil })
		m.E.Run()
		if !done {
			t.Fatalf("post-recovery read to node %d failed", i)
		}
	}
}

func TestLinkFailureRecovery(t *testing.T) {
	m := New(smallConfig(19))
	// Fail the link between nodes 1 and 2 (mesh 4x2, same row).
	p := m.Topo.PortTo(1, 2)
	link := m.Topo.Adjacency(1)[p].Link
	m.Inject(fault.Fault{Type: fault.LinkFailure, Link: link})
	// Traffic 1->2 is black-holed until recovery reroutes.
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(2))+0x100))
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatalf("recovery did not complete; reports=%d/%d", len(m.Reports()), len(m.Survivors()))
	}
	// No node lost: all 8 report, nobody shuts down.
	if len(m.Reports()) != 8 {
		t.Fatalf("reports = %d, want 8", len(m.Reports()))
	}
	for _, r := range m.Reports() {
		if r.ShutDown {
			t.Fatalf("link failure must not shut nodes down: %+v", r)
		}
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
	// 1 -> 2 must work again over the rerouted path.
	done := false
	m.Nodes[1].Ctrl.Read(m.Space.Base(2)+0x40, func(r magic.Result) { done = r.Err == nil })
	m.E.Run()
	if !done {
		t.Fatal("post-recovery read across failed link's reroute failed")
	}
}

func TestFailureUnitsShutDownDoomedCell(t *testing.T) {
	cfg := smallConfig(23)
	// Two units of 4 nodes: {0..3}, {4..7}.
	cfg.FailureUnits = []int{0, 0, 0, 0, 1, 1, 1, 1}
	m := New(cfg)
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x100))
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatalf("recovery did not complete; reports=%d/%d", len(m.Reports()), len(m.Survivors()))
	}
	for n, r := range m.Reports() {
		inUnit1 := n >= 4
		if inUnit1 && !r.ShutDown {
			t.Fatalf("node %d shares the failed unit and must shut down", n)
		}
		if !inUnit1 && r.ShutDown {
			t.Fatalf("node %d is in the healthy unit and must survive", n)
		}
	}
	// Survivors' node maps mark the whole doomed unit down.
	for n := 0; n < 4; n++ {
		for d := 4; d < 8; d++ {
			if m.Nodes[n].Ctrl.NodeUp(d) {
				t.Fatalf("node %d still thinks doomed node %d is up", n, d)
			}
		}
	}
}

func TestAggregatePhaseTimes(t *testing.T) {
	m := New(smallConfig(29))
	m.Inject(fault.Fault{Type: fault.FalseAlarm, Node: 0})
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatal("recovery did not complete")
	}
	pt := m.Aggregate()
	if pt.Participants != 8 {
		t.Fatalf("participants = %d", pt.Participants)
	}
	if !(pt.P1 > 0 && pt.P1 <= pt.P12 && pt.P12 <= pt.P123 && pt.P123 <= pt.Total) {
		t.Fatalf("phase times not cumulative: %+v", pt)
	}
	if pt.Total > 500*sim.Millisecond {
		t.Fatalf("8-node recovery should take well under 500 ms, got %v", pt.Total)
	}
}

func TestSecondFaultDuringRecoveryRestarts(t *testing.T) {
	m := New(smallConfig(31))
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x100))
	// Let recovery start, then kill another node mid-flight.
	m.E.RunUntil(m.E.Now() + 2*sim.Millisecond)
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 7})
	if !m.RunUntilRecovered(5 * sim.Second) {
		t.Fatalf("recovery did not complete after second fault; reports=%d/%d",
			len(m.Reports()), len(m.Survivors()))
	}
	if len(m.Reports()) != 6 {
		t.Fatalf("reports = %d, want 6", len(m.Reports()))
	}
	restarts := 0
	for n, r := range m.Reports() {
		if m.Nodes[n].Ctrl.NodeUp(5) || m.Nodes[n].Ctrl.NodeUp(7) {
			t.Fatalf("node %d's map misses a dead node", n)
		}
		restarts += r.Restarts
	}
	// The second fault restarts the recovery in progress, and the counter
	// counts exactly the restarts the reports do.
	if got := m.Metrics.Counter("core.recovery_restarts").Value(); restarts == 0 || got != uint64(restarts) {
		t.Fatalf("core.recovery_restarts = %d, reports' restarts = %d; want equal and nonzero", got, restarts)
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
}

// A fault after a completed recovery starts a new one, which the finished
// agents join through its pings: joining is not a restart, in the counter
// or in the reports.
func TestRecoveryAfterRecoveryRestartsNothing(t *testing.T) {
	m := New(smallConfig(31))
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x100))
	if !m.RunUntilRecovered(5 * sim.Second) {
		t.Fatal("first recovery did not complete")
	}
	m.Advance(m.Now() + 10*sim.Millisecond)
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 7})
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(7))+0x100))
	if !m.RunUntilRecovered(m.Now() + 5*sim.Second) {
		t.Fatal("second recovery did not complete")
	}
	for n, r := range m.Reports() {
		if r.Epoch != 2 || r.Restarts != 0 {
			t.Fatalf("node %d: epoch %d, %d restarts; want epoch 2 and none", n, r.Epoch, r.Restarts)
		}
	}
	if got := m.Metrics.Counter("core.recovery_restarts").Value(); got != 0 {
		t.Fatalf("core.recovery_restarts = %d after two recoveries without a restart", got)
	}
}

// phaseHook ensures the OnPhase plumbing works.
func TestOnPhaseHook(t *testing.T) {
	cfg := smallConfig(37)
	seen := map[core.Phase]bool{}
	cfg.Recovery.OnPhase = func(node int, p core.Phase) { seen[p] = true }
	m := New(cfg)
	m.Inject(fault.Fault{Type: fault.FalseAlarm, Node: 2})
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatal("recovery did not complete")
	}
	for _, p := range []core.Phase{core.PhaseInit, core.PhaseDissemination,
		core.PhaseInterconnect, core.PhaseCoherence, core.PhaseDone} {
		if !seen[p] {
			t.Fatalf("phase %v never observed", p)
		}
	}
}
