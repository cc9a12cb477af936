package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flashfc/internal/interconnect"
	"flashfc/internal/routing"
	"flashfc/internal/topology"
)

// randomSurvivorView fails 0–3 random routers and 0–3 random links of t and
// returns the view with the dissemination BFT of its elected root.
func randomSurvivorView(rng *rand.Rand, t *topology.Topology) (*topology.View, *topology.BFT) {
	v := topology.NewView(t)
	for i := rng.Intn(4); i > 0; i-- {
		v.FailRouter(rng.Intn(t.Routers()))
	}
	for i := rng.Intn(4); i > 0; i-- {
		v.FailLink(rng.Intn(len(t.Links())))
	}
	return v, v.BFS(v.ElectRoot())
}

// TestRepairMemoDifferential drives one memo through repeated, changed and
// re-repeated (view, BFT) keys under every strategy and checks each answer
// against a direct computation, and that exactly the changed keys missed.
func TestRepairMemoDifferential(t *testing.T) {
	topos := []*topology.Topology{topology.NewMesh(5, 4), topology.NewHypercube(4)}
	strats := []routing.Strategy{nil, routing.Paper, routing.Incremental, routing.Adaptive}
	// nil stands for the strategy an agent built with a nil Config.Routing
	// runs.
	defaulted := newRig(t, 2, 1, nil).agents[0].cfg.Routing
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 40; iter++ {
		topo := topos[iter%len(topos)]
		strat := strats[(iter/len(topos))%len(strats)]
		name := "nil"
		if strat != nil {
			name = strat.Name()
		} else {
			strat = defaulted
		}
		t.Run(fmt.Sprintf("%d-%v-%s", iter, topo.Kind(), name), func(t *testing.T) {
			v1, b1 := randomSurvivorView(rng, topo)
			// v2 differs from v1 in one link the first view still had up.
			v2 := v1.Clone()
			for l, up := range v2.LinkUp {
				if up {
					v2.FailLink(l)
					break
				}
			}
			b2 := v2.BFS(v2.ElectRoot())
			// b3 keeps v1's graph but orients it from another root.
			root3 := -1
			for r, up := range v1.RouterUp {
				if up && r != b1.Root {
					root3 = r
				}
			}
			if root3 < 0 {
				t.Skip("fewer than two live routers")
			}
			b3 := v1.BFS(root3)

			m := NewRepairMemo()
			steps := []struct {
				v    *topology.View
				b    *topology.BFT
				miss bool
			}{
				{v1, b1, true},
				{v1.Clone(), v1.BFS(b1.Root), false}, // equal content, other pointers
				{v2, b2, true},
				{v1, b1, false},
				{v1, b3, true},
				{v2, b2, false},
				{v1, b3, false},
			}
			for i, s := range steps {
				before := m.Misses
				got := m.lookup(strat, s.v, s.b)
				if missed := m.Misses != before; missed != s.miss {
					t.Fatalf("step %d: missed = %v, want %v", i, missed, s.miss)
				}
				if name == "nil" {
					if want := topology.UpDownTables(s.v, s.b); !reflect.DeepEqual(got.Tables, want) {
						t.Fatalf("step %d: nil-strategy tables differ from UpDownTables", i)
					}
				}
				if want := strat.RepairTables(s.v, s.b); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: memoised repair differs from a direct RepairTables\n got %+v\nwant %+v",
						i, got, want)
				}
			}
			if m.Lookups != len(steps) {
				t.Fatalf("Lookups = %d, want %d", m.Lookups, len(steps))
			}
		})
	}
}

// TestRepairMemoKeyedByStrategy: the same view under two strategies is two
// entries, never one strategy's repair handed to the other.
func TestRepairMemoKeyedByStrategy(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	v := topology.NewView(topo)
	v.FailRouter(5)
	b := v.BFS(v.ElectRoot())
	m := NewRepairMemo()
	for _, s := range []routing.Strategy{routing.Paper, routing.Incremental, routing.Paper, routing.Incremental} {
		if got, want := m.lookup(s, v, b), s.RepairTables(v, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoised repair differs from a direct one", s.Name())
		}
	}
	if m.Misses != 2 {
		t.Fatalf("Misses = %d, want 2 (one per strategy)", m.Misses)
	}
}

// TestRepairMemoBounded: more distinct keys than the memo holds evict the
// oldest, stay correct, and never grow the memo.
func TestRepairMemoBounded(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	m := NewRepairMemo()
	var views []*topology.View
	for l := 0; l <= repairMemoSize; l++ {
		v := topology.NewView(topo)
		v.FailLink(l)
		views = append(views, v)
	}
	for round := 0; round < 2; round++ {
		for _, v := range views {
			b := v.BFS(0)
			if got, want := m.lookup(routing.Paper, v, b).Tables, topology.UpDownTables(v, b); !reflect.DeepEqual(got, want) {
				t.Fatal("evicting memo returned wrong tables")
			}
		}
	}
	if len(m.entries) != repairMemoSize {
		t.Fatalf("memo holds %d entries, bound is %d", len(m.entries), repairMemoSize)
	}
	// Cycling through size+1 keys round-robin misses every time.
	if m.Misses != m.Lookups {
		t.Fatalf("Misses = %d of %d lookups, want all", m.Misses, m.Lookups)
	}
}

// TestGossipStateNeverWrittenAfterSend: a round's packets share one message
// holding one snapshot of the sender's state, the lame-duck echo sends
// finalState itself, and a P4 flush's packets share one flush-done message,
// so none of them may alias state the sender keeps writing, and no later
// send may rewrite a message already on the wire. A snapshot is shipped
// again by the next round only when the merge between them changed nothing,
// and P2's end hands the last one to finalState.
func TestGossipStateNeverWrittenAfterSend(t *testing.T) {
	r := newRig(t, 2, 2, func(c *Config) { c.watchdogTimeout = 0 })
	var got []*recMsg
	for _, q := range []int{1, 2} {
		r.ctrls[q].SetRecoveryHandler(func(p *interconnect.Packet) {
			got = append(got, p.Payload.(*recMsg))
		})
	}
	a := r.agents[0]
	a.epoch = 1
	a.report = &Report{}
	a.resetState()
	a.phase = PhaseDissemination
	a.cwn = []int{1, 2}
	a.cwnRoute = [][]int{{0, 1}, {0, 2}}
	a.st.setNode(1, triUp)
	a.st.setRouter(1, triUp)
	a.round, a.target = 1, 1

	news := newSysState(a.st.n, a.st.l)
	news.setNode(3, triDown)
	news.setRouter(3, triDown)
	news.setLink(0, triDown)

	want := a.st.clone()
	a.sendRound()
	r.e.RunUntil(a.busyUntil) // marshaling charge paid: the round is on the wire
	if !a.st.merge(news) {
		t.Fatal("merge changed nothing")
	}
	r.e.Run()
	if len(got) != 2 {
		t.Fatalf("captured %d state messages, want 2", len(got))
	}
	if got[0] != got[1] {
		t.Fatal("a round's packets should share one message")
	}
	round1 := got[0]
	sent := *round1
	if round1.State == a.st || !statesEqual(round1.State, want) {
		t.Fatalf("in-flight round state was written after send: %v, want %v",
			entries(round1.State), entries(want))
	}
	// The next round ships a message of its own; the first is untouched.
	got = nil
	a.round, a.target, a.hint = 2, 3, 3
	a.sendRound()
	r.e.Run()
	if len(got) != 2 || got[0] != got[1] || got[0] == round1 || got[0].Round != 2 {
		t.Fatalf("round 2 sent %d messages (shared %v, new %v)", len(got),
			len(got) == 2 && got[0] == got[1], len(got) > 0 && got[0] != round1)
	}
	if *round1 != sent || !statesEqual(round1.State, want) {
		t.Fatalf("round 1's message was rewritten: %+v, want %+v", *round1, sent)
	}

	// Lame duck: dissemination is over, late state messages get finalState.
	got = nil
	a.finalState = a.st.clone()
	want = a.st.clone()
	a.phase = PhaseInterconnect
	a.onState(&recMsg{Kind: kState, From: 1, Epoch: 1, Round: 2})
	news.setNode(2, triDown)
	if !a.st.merge(news) {
		t.Fatal("merge changed nothing")
	}
	r.e.Run()
	if len(got) != 1 || !statesEqual(got[0].State, want) {
		t.Fatalf("lame-duck echo state was written after send (%d messages)", len(got))
	}

	// P4: every participant's flush-done packet carries the same message,
	// and a later flush (a restarted epoch's) does not rewrite it.
	flush := func() []*recMsg {
		got = nil
		a.phase = PhaseCoherence
		setParticipants(a, 0, 1, 2)
		a.doFlush()
		r.e.Run()
		return got
	}
	first := flush()
	if len(first) != 2 || first[0] != first[1] {
		t.Fatalf("flush sent %d flush-done messages, want 2 sharing one", len(first))
	}
	done := *first[0]
	if done.Kind != kFlushDone || done.From != a.ID || done.Epoch != 1 {
		t.Fatalf("flush-done message = %+v", done)
	}
	a.epoch = 2
	a.resetState()
	second := flush()
	if len(second) != 2 || second[0] == first[0] || second[0].Epoch != 2 {
		t.Fatalf("the restarted epoch's flush should send a message of its own")
	}
	if *first[0] != done {
		t.Fatalf("a sent flush-done message was rewritten: %+v, want %+v", *first[0], done)
	}

	// Snapshot reuse across real merges, in a fresh epoch.
	a.epoch = 3
	a.resetState()
	a.phase = PhaseDissemination
	a.cwn = []int{1, 2}
	a.cwnRoute = [][]int{{0, 1}, {0, 2}}
	a.round, a.target, a.hint = 1, 3, 3
	// ship runs the engine until the current round is on the wire — past
	// a pending merge, which charges the send — and returns its message,
	// which must hold a.st as it was at that instant.
	ship := func() *recMsg {
		t.Helper()
		got = nil
		r.e.RunUntil(a.busyUntil)
		r.e.RunUntil(a.busyUntil)
		atSend := a.st.clone()
		r.e.Run()
		if len(got) != 2 || got[0] != got[1] || got[0].Round != a.round {
			t.Fatalf("round %d sent %d messages, want 2 sharing one", a.round, len(got))
		}
		if !statesEqual(got[0].State, atSend) {
			t.Fatalf("round %d shipped %v, but the sender held %v", a.round,
				entries(got[0].State), entries(atSend))
		}
		return got[0]
	}
	// merge hands the current round's messages, all carrying s, to a. The
	// round's inbox map is the last merged round's, reused: it must come
	// back empty, so the round waits for every message.
	merge := func(s *sysState) {
		t.Helper()
		for i, q := range a.cwn {
			if i > 0 && a.merging {
				t.Fatalf("round %d merged before all its messages were in", a.round)
			}
			a.onState(&recMsg{Kind: kState, From: q, Epoch: a.epoch, Round: a.round, State: s, Target: a.target})
		}
	}
	a.sendRound()
	r1 := ship()
	sent1 := r1.State.clone()
	merge(newSysState(a.st.n, a.st.l)) // teaches a nothing
	r2 := ship()
	if r2 == r1 || r2.State != r1.State {
		t.Fatal("a round after a merge that changed nothing should ship the previous round's snapshot")
	}
	// A pong answering a speculative ping can land in P2 and write a.st
	// outside any merge: the next round must not ship the stale snapshot.
	a.onPong(&recMsg{Kind: kPong, From: 3, Epoch: a.epoch})
	merge(newSysState(a.st.n, a.st.l))
	r3 := ship()
	if r3.State == r2.State {
		t.Fatal("a round after a write outside the merge shipped the previous round's snapshot")
	}
	merge(news) // teaches a the failures
	r4 := ship()
	if r4.State == r3.State {
		t.Fatal("a round after a merge that changed something shipped the previous round's snapshot")
	}
	if !statesEqual(r1.State, sent1) {
		t.Fatalf("a shipped snapshot was written: %v, want %v", entries(r1.State), entries(sent1))
	}
	// A last merge that changes nothing ends P2 at round 4 >= target: the
	// last round's snapshot becomes finalState, and P2's scratch goes.
	merge(news)
	r.e.RunUntil(a.busyUntil)
	if a.finalState != r4.State {
		t.Fatal("finalState should be the last round's snapshot, not a fresh clone")
	}
	if a.inbox != nil || a.spareInbox != nil || a.snap != nil {
		t.Fatal("P2's inbox maps and snapshot outlived P2")
	}
}
