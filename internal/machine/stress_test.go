package machine

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
)

// Randomized protocol stress: every node issues a mixed stream of reads and
// writes (each line has exactly one designated writer, so the final value
// of every line is well-defined), optionally with a recovery in the middle.
// At quiescence the global coherence invariants must hold and every line
// must read back its last committed value.

func stressRun(t *testing.T, seed int64, ops int, withFalseAlarm bool) {
	t.Helper()
	cfg := smallConfig(seed)
	m := New(cfg)
	rng := rand.New(rand.NewSource(seed))
	totalLines := int(uint64(cfg.Nodes) * cfg.MemBytes / 128)

	// writerOf assigns each line a unique writer.
	writerOf := func(line int) int { return line % cfg.Nodes }

	pending := 0
	var issue func(node int)
	issue = func(node int) {
		if pending >= ops {
			return
		}
		pending++
		line := rng.Intn(totalLines)
		addr := coherence.Addr(line * 128)
		var op proc.Op
		if writerOf(line) == node && rng.Intn(2) == 0 {
			tok := m.Oracle.NextToken()
			a := addr
			op = proc.Op{Kind: proc.OpWrite, Addr: addr, Token: tok, Done: func(r magic.Result) {
				if r.Err == nil {
					m.Oracle.Wrote(a, tok)
				}
				issue(node)
			}}
		} else {
			op = proc.Op{Kind: proc.OpRead, Addr: addr, Done: func(r magic.Result) { issue(node) }}
		}
		m.Nodes[node].CPU.Submit(op)
	}
	for n := 0; n < cfg.Nodes; n++ {
		for k := 0; k < 4; k++ {
			issue(n)
		}
	}
	if withFalseAlarm {
		m.InjectAt(fault.Fault{Type: fault.FalseAlarm, Node: seedMod(seed, cfg.Nodes)}, 300*sim.Microsecond)
		deadline := 10 * sim.Second
		for m.E.Now() < deadline && !m.Recovered() {
			m.E.RunUntil(m.E.Now() + sim.Millisecond)
		}
		if !m.Recovered() {
			t.Fatal("recovery incomplete")
		}
	}
	m.E.Run()

	if bad := m.CheckCoherenceInvariants(); len(bad) != 0 {
		for _, b := range bad {
			t.Error(b)
		}
		t.Fatalf("%d coherence invariant violations", len(bad))
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verify: %v", res)
	}
	if withFalseAlarm && res.Incoherent != 0 {
		t.Fatalf("false alarm lost data: %v", res)
	}
}

func seedMod(s int64, n int) int {
	v := int(s % int64(n))
	if v < 0 {
		v += n
	}
	return v
}

func TestStressProtocolQuiescence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		stressRun(t, seed, 400, false)
	}
}

func TestStressProtocolWithFalseAlarm(t *testing.T) {
	for seed := int64(10); seed <= 14; seed++ {
		stressRun(t, seed, 400, true)
	}
}

func TestInvariantCheckerDetectsViolations(t *testing.T) {
	m := New(smallConfig(99))
	// Manufacture a violation: directory says exclusive, cache empty.
	e := m.Nodes[0].Dir.Get(0x80)
	e.State = coherence.DirExclusive
	e.Owner = 1
	if bad := m.CheckCoherenceInvariants(); len(bad) == 0 {
		t.Fatal("checker should flag the phantom exclusive owner")
	}
	e.State = coherence.DirInvalid
	m.Nodes[0].Dir.Release(0x80)
	// Manufacture the reverse: resident line without a directory entry.
	m.Nodes[2].Cache.Install(0x100, coherence.CacheShared, 5)
	if bad := m.CheckCoherenceInvariants(); len(bad) == 0 {
		t.Fatal("checker should flag the orphan resident line")
	}
}

// Violations come back in address order, the same bytes on every call, so
// they can be recorded in byte-identical run records.
func TestCoherenceViolationsInAddressOrder(t *testing.T) {
	m := New(smallConfig(99))
	nodes := len(m.Nodes)
	var addrs []coherence.Addr
	for n := nodes - 1; n >= 0; n-- {
		for k := 7; k >= 0; k-- {
			a := m.Space.Base(n) + coherence.Addr(k*128)
			addrs = append(addrs, a)
			if k%2 == 0 {
				// A phantom exclusive owner that does not hold the line.
				e := m.Nodes[n].Dir.Get(a)
				e.State = coherence.DirExclusive
				e.Owner = (n + 1) % nodes
			} else {
				// A resident line its home has no entry for.
				m.Nodes[(n+2)%nodes].Cache.Install(a, coherence.CacheShared, 5)
			}
		}
	}
	first := m.CheckCoherenceInvariants()
	if len(first) != len(addrs) {
		t.Fatalf("%d violations, want %d:\n%s", len(first), len(addrs), strings.Join(first, "\n"))
	}
	slices.Sort(addrs)
	for i, v := range first {
		if !strings.HasPrefix(v, addrs[i].String()+": ") {
			t.Fatalf("violation %d is %q, want line %v", i, v, addrs[i])
		}
	}
	if second := m.CheckCoherenceInvariants(); !slices.Equal(first, second) {
		t.Fatal("two calls on the same state reported different bytes")
	}
}
