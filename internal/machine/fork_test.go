package machine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

func newSmall(seed int64) *machine.Machine {
	mc := machine.DefaultConfig(8)
	mc.Seed = seed
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	return machine.New(mc)
}

// runBurst drives one seeded fill burst to completion and then drains the
// engine to a quiescent point (evicted-line writebacks are fire-and-forget,
// so completion of the fill alone does not mean no events are pending).
func runBurst(t *testing.T, m *machine.Machine, lines int, seed int64) {
	t.Helper()
	f := workload.NewFillerSeeded(m, seed)
	f.FillLines = lines
	done := false
	f.Start(func() { done = true })
	deadline := m.E.Now() + 10*sim.Second
	for (!done || m.E.Pending() > 0) && m.E.Now() < deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
	}
	if !done || m.E.Pending() > 0 {
		t.Fatalf("burst did not quiesce: done=%v pending=%d", done, m.E.Pending())
	}
}

// continueRun is the identical post-snapshot script both sides execute: a
// random fault injected mid-burst, recovery, and a full verification sweep.
// Its fingerprint captures everything observable about the run.
func continueRun(t *testing.T, m *machine.Machine, ft fault.Type, burstSeed int64) string {
	t.Helper()
	f := fault.Random(m.E.Rand(), ft, m.Topo, 1)
	filler := workload.NewFillerSeeded(m, burstSeed)
	filler.FillLines = 32
	filler.OnHalfDone = func() { m.Inject(f) }
	done := false
	filler.Start(func() { done = true })
	deadline := m.E.Now() + 5*sim.Second
	for !done && m.E.Now() < deadline {
		m.E.RunUntil(m.E.Now() + sim.Millisecond)
	}
	m.Nodes[0].CPU.Submit(workload.TouchOp(m, f.Node))
	recovered := m.RunUntilRecovered(m.E.Now() + 5*sim.Second)
	v := m.VerifyMemory(0, 1)
	mj, err := json.Marshal(m.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("fault=%v recovered=%v now=%d fired=%d verify=%v metrics=%s",
		f, recovered, m.E.Now(), m.E.EventsFired(), v, mj)
}

// A fork must continue bit-identically to the source it was taken from,
// across random warm-up shapes and snapshot points.
func TestForkContinuesIdenticallyToSource(t *testing.T) {
	shapes := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		seed := int64(100 + trial)
		src := newSmall(seed)
		bursts := 1 + shapes.Intn(3)
		for b := 0; b < bursts; b++ {
			runBurst(t, src, 16+shapes.Intn(48), int64(1000*trial+b))
		}
		snap := src.Snapshot()

		ft := fault.AllTypes()[trial%len(fault.AllTypes())]
		want := continueRun(t, src, ft, 5555)
		fork := machine.FromSnapshot(snap, nil)
		got := continueRun(t, fork, ft, 5555)
		if got != want {
			t.Fatalf("trial %d (%d bursts, fault %v): fork diverged from source\nsource: %s\nfork:   %s",
				trial, bursts, ft, want, got)
		}
	}
}

// A snapshot must stay reusable: two forks taken before and after both the
// source and a sibling fork have run (and mutated their own state) must
// still produce identical runs.
func TestSnapshotImmutableAcrossForks(t *testing.T) {
	src := newSmall(42)
	runBurst(t, src, 64, 9001)
	snap := src.Snapshot()

	first := continueRun(t, machine.FromSnapshot(snap, nil), fault.NodeFailure, 777)
	// Dirty the source after the snapshot too, then fork again.
	continueRun(t, src, fault.RouterFailure, 888)
	second := continueRun(t, machine.FromSnapshot(snap, nil), fault.NodeFailure, 777)
	if first != second {
		t.Fatalf("sibling forks diverged:\nfirst:  %s\nsecond: %s", first, second)
	}
}

func TestSnapshotPanicsMidFlight(t *testing.T) {
	m := newSmall(1)
	f := workload.NewFiller(m)
	f.FillLines = 8
	f.Start(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot with pending events did not panic")
		}
	}()
	m.Snapshot()
}

// Snapshot refuses a machine any fault.Target method has touched, whether
// or not the fault changed ground truth: a false alarm, a degraded link and
// a slowed node leave every component up, yet the machine is no longer
// pre-fault. The table names every method of the interface.
func TestSnapshotPanicsPostFault(t *testing.T) {
	cases := map[string]func(fault.Target){
		"KillNode":    func(m fault.Target) { m.KillNode(3) },
		"LoopNode":    func(m fault.Target) { m.LoopNode(3) },
		"FailRouter":  func(m fault.Target) { m.FailRouter(3) },
		"FailLink":    func(m fault.Target) { m.FailLink(0) },
		"FalseAlarm":  func(m fault.Target) { m.FalseAlarm(3) },
		"DegradeLink": func(m fault.Target) { m.DegradeLink(0, sim.Millisecond) },
		"SlowNode":    func(m fault.Target) { m.SlowNode(3, 10) },
		"KillCPU":     func(m fault.Target) { m.KillCPU(3) },
	}
	target := reflect.TypeFor[fault.Target]()
	if target.NumMethod() != len(cases) {
		t.Fatalf("fault.Target has %d methods, the table %d", target.NumMethod(), len(cases))
	}
	for i := 0; i < target.NumMethod(); i++ {
		name := target.Method(i).Name
		inject, ok := cases[name]
		if !ok {
			t.Fatalf("no case for fault.Target.%s", name)
		}
		t.Run(name, func(t *testing.T) {
			m := newSmall(2)
			runBurst(t, m, 16, 1)
			inject(m)
			// Drain whatever the fault provoked, then try to snapshot.
			m.E.RunUntil(m.E.Now() + sim.Second)
			defer func() {
				if recover() == nil {
					t.Fatal("Snapshot after a fault did not panic")
				}
			}()
			m.Snapshot()
		})
	}
}
