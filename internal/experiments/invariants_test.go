package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// recoveredFork runs ValidationFromWarm's fault script on a fork of ws up
// to the end of recovery, then lets the running processors finish their
// outstanding operations: the machine comes back at a quiescent point,
// where the coherence invariants must hold.
func recoveredFork(t *testing.T, ws *WarmState, ft fault.Type, runSeed int64) *machine.Machine {
	t.Helper()
	m := machine.FromSnapshot(ws.Snap, nil)
	f := fault.Random(rand.New(rand.NewSource(runSeed)), ft, m.Topo, 1)
	burst := workload.NewFillerSeeded(m, runSeed)
	burst.FillLines = ws.burstLines()
	start := m.Now()
	fillAndInject(m, burst, start+ws.Cfg.Deadline, func() { m.Inject(f) })
	driveDetection(m, f)
	if !m.RunUntilRecovered(start + ws.Cfg.Deadline) {
		t.Fatalf("%v seed %d: recovery incomplete", f, runSeed)
	}
	busy := func() bool {
		for _, n := range m.Nodes {
			if !n.CPU.Paused() && n.CPU.Inflight()+n.CPU.QueueLen() > 0 {
				return true
			}
		}
		return false
	}
	for i := 0; i < 100 && busy(); i++ {
		m.Advance(m.Now() + sim.Millisecond)
	}
	m.Advance(m.Now() + sim.Millisecond)
	return m
}

// After recovery from any fault class, the coherence state of what is left
// of the machine is consistent: the checker skips what the fault killed
// (a dead node's cache, the directory of a dead home) and finds nothing in
// the rest. Every live survivor's node map agrees with the liveness view on
// which homes still serve, the agreement the verify sweep's classify relies
// on when it judges a home by the reader's map. Default Table 5.3 sizes,
// three runs per class.
func TestCoherenceInvariantsHoldAfterRecovery(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	for _, ft := range append(fault.AllTypes(), fault.ExtendedTypes()...) {
		for seed := int64(1); seed <= 3; seed++ {
			m := recoveredFork(t, ws, ft, seed)
			if bad := m.CheckCoherenceInvariants(); len(bad) != 0 {
				t.Errorf("%v seed %d: %d violations after recovery:\n%s", ft, seed, len(bad), strings.Join(bad, "\n"))
			}
			live := m.Liveness()
			for _, s := range live.Survivors() {
				if !live.Live(s) {
					continue
				}
				ctrl := m.Nodes[s].Ctrl
				for h := range m.Nodes {
					if got, want := ctrl.NodeUp(h) || ctrl.MemReachable(h), live.HomeServes(h); got != want {
						t.Errorf("%v seed %d: node %d's map says home %d serves = %v, the liveness view %v", ft, seed, s, h, got, want)
					}
				}
			}
		}
	}
}

// Skipping the failed hardware must not blind the checker to the rest: a
// line deleted from a live owner's cache after a node failure is flagged.
func TestCoherenceCheckerFlagsLiveOwnerAfterFailure(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	m := recoveredFork(t, ws, fault.NodeFailure, 1)
	dead := -1
	for id := range m.Nodes {
		if r := m.Reports()[id]; r == nil {
			dead = id
		}
	}
	var victim coherence.Addr
	owner := -1
	for _, home := range m.Nodes {
		if home.ID == dead || owner >= 0 {
			continue
		}
		home.Dir.ForEach(func(a coherence.Addr, e *coherence.DirEntry) {
			if owner < 0 && e.State == coherence.DirExclusive && e.Owner != dead {
				victim, owner = a, e.Owner
			}
		})
	}
	if owner < 0 {
		t.Fatal("no line is held exclusive by a live node after recovery")
	}
	if bad := m.CheckCoherenceInvariants(); len(bad) != 0 {
		t.Fatalf("%d violations before the mutation:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	m.Nodes[owner].Cache.Invalidate(victim)
	bad := m.CheckCoherenceInvariants()
	if len(bad) != 1 || !strings.Contains(bad[0], "not resident") {
		t.Fatalf("after deleting %v from owner %d's cache: %q, want one \"not resident\" violation", victim, owner, bad)
	}
}
