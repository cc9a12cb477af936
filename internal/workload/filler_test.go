package workload

import (
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
)

func newMachine(t *testing.T, seed int64) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig(4)
	cfg.Seed = seed
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	return machine.New(cfg)
}

func TestFillerFillsCaches(t *testing.T) {
	m := newMachine(t, 1)
	f := NewFiller(m)
	if f.FillLines != m.Nodes[0].Cache.CapacityLines()/2 {
		t.Fatalf("default FillLines = %d", f.FillLines)
	}
	done := false
	f.Start(func() { done = true })
	m.E.Run()
	if !done {
		t.Fatal("filler never finished")
	}
	if f.Pending() != 0 {
		t.Fatalf("pending = %d", f.Pending())
	}
	// Every node should hold a healthy number of lines (collisions and
	// invalidations make exact counts workload-dependent).
	for _, n := range m.Nodes {
		if n.Cache.Len() < f.FillLines/2 {
			t.Fatalf("node %d cache holds %d lines, want >= %d",
				n.ID, n.Cache.Len(), f.FillLines/2)
		}
	}
}

func TestFillerHalfDoneFiresOnce(t *testing.T) {
	m := newMachine(t, 2)
	f := NewFiller(m)
	f.FillLines = 32
	halves := 0
	f.OnHalfDone = func() { halves++ }
	f.Start(func() {})
	m.E.Run()
	if halves != 1 {
		t.Fatalf("OnHalfDone fired %d times", halves)
	}
}

func TestFillerRecordsWritesInOracle(t *testing.T) {
	m := newMachine(t, 3)
	f := NewFiller(m)
	f.FillLines = 64
	f.Start(func() {})
	m.E.Run()
	written := m.Oracle.WrittenLines()
	if len(written) == 0 {
		t.Fatal("no writes recorded")
	}
	// Every line's last committed token is what the oracle expects.
	for _, a := range written {
		home := m.Space.Home(a)
		var res magic.Result
		m.Nodes[home].Ctrl.Read(a, func(r magic.Result) { res = r })
		m.E.Run()
		if res.Err != nil || res.Token != m.Oracle.ExpectedToken(a) {
			t.Fatalf("read of written line %v: %+v, want %x", a, res, m.Oracle.ExpectedToken(a))
		}
	}
}

func TestFillerDeterministicPerSeed(t *testing.T) {
	run := func() int {
		m := newMachine(t, 7)
		f := NewFiller(m)
		f.FillLines = 32
		f.Start(func() {})
		m.E.Run()
		return len(m.Oracle.WrittenLines())
	}
	if run() != run() {
		t.Fatal("filler not deterministic for a fixed seed")
	}
}

func TestTouchOp(t *testing.T) {
	m := newMachine(t, 4)
	op := TouchOp(m, 2)
	if op.Kind != 0 /* OpRead */ {
		t.Fatal("touch should be a read")
	}
	if m.Space.Home(op.Addr) != 2 {
		t.Fatalf("touch addr %v not homed on 2", op.Addr)
	}
	done := false
	op.Done = func(r magic.Result) { done = r.Err == nil }
	m.Nodes[0].CPU.Submit(op)
	m.E.RunUntil(sim.Millisecond)
	if !done {
		t.Fatal("touch read failed")
	}
	_ = coherence.Addr(0)
}
