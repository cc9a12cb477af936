package core

import (
	"testing"

	"flashfc/internal/magic"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
)

// The watchdog's rule: an agent is stalled only when it has neither heard a
// message of its epoch nor run charged recovery code for watchdogTimeout.
// slowRig is a 4×4 mesh whose recovery code runs at 1.5 µs an instruction:
// recovery entry still answers a ping inside PingTimeout, but one P2 round
// of an inner node (its send charge, then its merge) outlasts a 1.5 ms
// watchdog, which still sits above the ping and probe timeouts.
const (
	slowInstr    = 1500 * sim.Nanosecond
	slowWatchdog = 1500 * sim.Microsecond
)

func slowRig(t *testing.T, watchdog sim.Time) *rig {
	t.Helper()
	return newRig(t, 4, 4, func(c *Config) {
		c.UncachedInstr = slowInstr
		c.watchdogTimeout = watchdog
	})
}

// killNode stops node n's controller and agent, leaving its router up.
func (r *rig) killNode(n int) {
	r.ctrls[n].SetMode(magic.ModeDead)
	r.agents[n].Kill()
}

// survivors lists the rig's nodes but dead.
func (r *rig) survivors(dead int) []int {
	var out []int
	for i := range r.agents {
		if i != dead {
			out = append(out, i)
		}
	}
	return out
}

// Busy is not stalled: with every P2 round charging more than the watchdog
// timeout, recovery from a dead node completes with no restart, and every
// node's report is the one the same rig delivers with no watchdog at all.
func TestBusyAgentIsNotStalled(t *testing.T) {
	if timing.PingTimeout >= slowWatchdog || timing.ProbeTimeout >= slowWatchdog {
		t.Fatalf("watchdog %v must exceed the ping (%v) and probe (%v) timeouts",
			slowWatchdog, timing.PingTimeout, timing.ProbeTimeout)
	}
	const dead = 0
	recovered := func(watchdog sim.Time) *rig {
		r := slowRig(t, watchdog)
		r.killNode(dead)
		r.agents[6].Trigger(magic.ReasonTimeout)
		r.run(t, 2*sim.Second, r.survivors(dead))
		return r
	}
	r := recovered(slowWatchdog)
	// The premise: an inner node's round charges (send, then merge) are
	// more than the timeout, so no message of the epoch reaches it for
	// longer than that while it works.
	a := r.agents[5]
	words := a.gossipWords()
	send := timing.InstrGossipRoundFixed + words*timing.InstrGossipPerWord +
		len(a.cwn)*timing.InstrGossipPerNeighbor
	if round := sim.Time(send+2*words*timing.InstrGossipPerWord) * slowInstr; round <= slowWatchdog {
		t.Fatalf("a P2 round charges %v, want more than the %v watchdog", round, slowWatchdog)
	}
	off := recovered(0)
	for _, n := range r.survivors(dead) {
		got, want := r.done[n], off.done[n]
		if got.Restarts != 0 {
			t.Errorf("node %d restarted %d times", n, got.Restarts)
		}
		if *got != *want {
			t.Errorf("node %d's report differs with the watchdog on:\n got %+v\nwant %+v", n, *got, *want)
		}
	}
}

// A second fault still restarts: node 1 dies while its neighbour node 0 is
// charging a P2 round, so node 0 waits for a round state that never comes.
// The first restart in the machine is a watchdog's, and it comes exactly
// watchdogTimeout after the later of that agent's last message of the
// epoch and the end of its charged work.
func TestSecondFaultRestartsAfterQuietTimeout(t *testing.T) {
	const victim = 1
	r := slowRig(t, slowWatchdog)
	type restart struct {
		node             int
		at, heard, until sim.Time
	}
	r.agents[3].Trigger(magic.ReasonFalseAlarm)
	a0 := r.agents[0]
	for a0.phase != PhaseDissemination || a0.busyUntil <= r.e.Now() {
		if r.e.Now() > sim.Second {
			t.Fatalf("node 0 never charged a P2 round: %s", a0.DebugString())
		}
		r.e.RunUntil(r.e.Now() + 10*sim.Microsecond)
	}
	r.killNode(victim)
	// Every agent is in the epoch by now, so the first restart after the
	// fault is a watchdog's: only a watchdog raises the epoch.
	for _, a := range r.agents {
		if a.phase == PhaseIdle || a.epoch != a0.epoch {
			t.Fatalf("%s is not in node 0's epoch %d", a, a0.epoch)
		}
	}
	var first *restart
	for _, a := range r.agents {
		a.cfg.OnPhase = func(n int, p Phase) {
			// restartTo passes through PhaseIdle before entering the new
			// epoch, with the old epoch's progress stamps still in place.
			if p == PhaseIdle && first == nil {
				first = &restart{n, r.e.Now(), a.heard, a.busyUntil}
			}
		}
	}
	r.run(t, 2*sim.Second, r.survivors(victim))
	if first == nil {
		t.Fatal("no agent restarted after the second fault")
	}
	last := max(first.heard, first.until)
	if first.at != last+slowWatchdog {
		t.Fatalf("node %d restarted at %v, want %v: last message %v, busy until %v, timeout %v",
			first.node, first.at, last+slowWatchdog, first.heard, first.until, slowWatchdog)
	}
	restarts := 0
	for _, n := range r.survivors(victim) {
		restarts += r.done[n].Restarts
		if r.ctrls[n].NodeUp(victim) {
			t.Errorf("node %d still counts node %d up", n, victim)
		}
	}
	t.Logf("node %d restarted at %v: last message %v, busy until %v", first.node, first.at, first.heard, first.until)
	if restarts == 0 {
		t.Fatal("recovery completed without a restart")
	}
}
