package machine

import (
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/magic"
)

// P4 marks exactly what the failed component held. A home slowed 100x has
// a queue of flush writebacks in front of its handler when the flushing
// node's flush-done arrives behind them on the same lane; the home may
// sweep its directory only once they have applied. So after recovery the
// lines a survivor held exclusive and flushed home are clean, and the
// lines the dead node held exclusive are marked incoherent.
func TestSlowHomeSweepsAfterQueuedWritebacks(t *testing.T) {
	const home, owner, dead = 5, 2, 7
	// A 64-line bank sweeps in about 22 µs, well inside the time the
	// slowed home needs for the writebacks queued ahead of the last
	// flush-done, so a sweep that ran at that flush-done's arrival would
	// mark them.
	cfg := smallConfig(1)
	cfg.MemBytes = 8 << 10
	m := New(cfg)
	write := func(node, first, n int) []coherence.Addr {
		var addrs []coherence.Addr
		for i := first; i < first+n; i++ {
			a := m.Space.Base(home) + coherence.Addr(i*128)
			tok := m.Oracle.NextToken()
			m.Nodes[node].Ctrl.Write(a, tok, func(r magic.Result) {
				if r.Err == nil {
					m.Oracle.Wrote(a, tok)
				}
			})
			addrs = append(addrs, a)
		}
		return addrs
	}
	flushed := write(owner, 0, 32)
	lost := write(dead, 32, 2)
	m.E.Run()
	m.Inject(fault.Fault{Type: fault.FailSlow, Node: home, Factor: 100})
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: dead})
	m.Nodes[0].CPU.Submit(readOp(m, uint64(m.Space.Base(dead))))
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatal("recovery did not complete")
	}
	dir := m.Nodes[home].Dir
	marked := 0
	for _, a := range flushed {
		if dir.Incoherent(a) {
			marked++
		}
	}
	if marked != 0 {
		t.Errorf("%d of the %d lines node %d flushed to the slowed home were marked incoherent",
			marked, len(flushed), owner)
	}
	for _, a := range lost {
		if !dir.Incoherent(a) {
			t.Errorf("line %#x held exclusive by dead node %d is not marked incoherent", a, dead)
		}
	}
	if res := m.VerifyMemory(0, 1); len(res.OverMarked) != 0 {
		t.Errorf("verify: %v", res)
	}
}
