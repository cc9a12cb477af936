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

// TestGossipStateNeverWrittenAfterSend: a round's packets each carry a
// message of their own in their own record, but one snapshot of the
// sender's state that all of them share; the lame-duck echo and a P4
// flush's flush-dones are sent the same way. None of them may alias state
// the sender keeps writing, and no later send may rewrite what is already
// on the wire. A snapshot is shipped again by the next round only when the
// merge between them changed nothing, and P2's end leaves finalState equal
// to the last state shipped, in storage of its own.
func TestGossipStateNeverWrittenAfterSend(t *testing.T) {
	r := newRig(t, 2, 2, func(c *Config) { c.watchdogTimeout = 0 })
	// got holds what each packet carried at delivery, copied out; a
	// packet's State is compared with what it held when it was sent.
	var got []recMsg
	var recs []*recPacket
	for _, q := range []int{1, 2} {
		r.ctrls[q].SetRecoveryHandler(func(p *interconnect.Packet) {
			got = append(got, *p.Payload.(*recMsg))
			recs = append(recs, p.Rec.(*recPacket))
		})
	}
	// round checks that the two packets just captured carry one round's
	// messages, in two records, sharing one snapshot, and returns it.
	round := func(n int) *sysState {
		t.Helper()
		if len(got) != 2 || got[0].Round != n || got[1].Round != n || got[0].Kind != kState {
			t.Fatalf("round %d sent %+v, want two state messages of that round", n, got)
		}
		if recs[0] == recs[1] {
			t.Fatalf("round %d's packets share a record", n)
		}
		if got[0].State != got[1].State {
			t.Fatalf("round %d's packets carry different snapshots", n)
		}
		return got[0].State
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
	round1 := round(1)
	if round1 == a.st || !statesEqual(round1, want) {
		t.Fatalf("in-flight round state was written after send: %v, want %v",
			entries(round1), entries(want))
	}
	// The next round ships a snapshot of its own; the first is untouched.
	got, recs = nil, nil
	a.round, a.target, a.hint = 2, 3, 3
	a.sendRound()
	r.e.Run()
	if round(2) == round1 {
		t.Fatal("round 2 shipped round 1's snapshot after a.st changed")
	}
	if !statesEqual(round1, want) {
		t.Fatalf("round 1's snapshot was rewritten: %v, want %v", entries(round1), entries(want))
	}

	// Lame duck: dissemination is over, late state messages get finalState.
	got, recs = nil, nil
	a.finalState = a.st.clone()
	want = a.st.clone()
	a.phase = PhaseInterconnect
	a.onState(&recMsg{Kind: kState, From: 1, Epoch: 1, Round: 2})
	news.setNode(2, triDown)
	if !a.st.merge(news) {
		t.Fatal("merge changed nothing")
	}
	r.e.Run()
	if len(got) != 1 || got[0].State == a.st || !statesEqual(got[0].State, want) {
		t.Fatalf("lame-duck echo state was written after send (%d messages)", len(got))
	}

	// P4: every participant gets a flush-done of its own, and a later
	// flush (a restarted epoch's) does not rewrite one on the wire.
	flush := func() []*recPacket {
		got, recs = nil, nil
		a.phase = PhaseCoherence
		setParticipants(a, 0, 1, 2)
		a.doFlush()
		r.e.Run()
		return recs
	}
	first := flush()
	if len(first) != 2 || first[0] == first[1] {
		t.Fatalf("flush sent %d flush-done messages, want 2 in records of their own", len(first))
	}
	for _, m := range got {
		if m.Kind != kFlushDone || m.From != a.ID || m.Epoch != 1 {
			t.Fatalf("flush-done message = %+v", m)
		}
	}
	done := first[0].msg
	a.epoch = 2
	a.resetState()
	second := flush()
	if len(second) != 2 || got[0].Epoch != 2 {
		t.Fatalf("the restarted epoch's flush sent %+v", got)
	}
	if first[0].msg != done {
		t.Fatalf("a flush-done message on the wire was rewritten: %+v, want %+v", first[0].msg, done)
	}

	// Snapshot reuse across real merges, in a fresh epoch.
	a.epoch = 3
	a.resetState()
	a.phase = PhaseDissemination
	a.cwn = []int{1, 2}
	a.cwnRoute = [][]int{{0, 1}, {0, 2}}
	a.round, a.target, a.hint = 1, 3, 3
	// ship runs the engine until the current round is on the wire — past
	// a pending merge, which charges the send — and returns its snapshot,
	// which must hold a.st as it was at that instant.
	ship := func() *sysState {
		t.Helper()
		got, recs = nil, nil
		r.e.RunUntil(a.busyUntil)
		r.e.RunUntil(a.busyUntil)
		atSend := a.st.clone()
		r.e.Run()
		s := round(a.round)
		if !statesEqual(s, atSend) {
			t.Fatalf("round %d shipped %v, but the sender held %v", a.round, entries(s), entries(atSend))
		}
		return s
	}
	// merge hands the current round's messages, all carrying s, to a. The
	// round's inbox row is the last merged round's, reused: it must come
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
	sent1 := r1.clone()
	merge(newSysState(a.st.n, a.st.l)) // teaches a nothing
	if r2 := ship(); r2 != r1 {
		t.Fatal("a round after a merge that changed nothing should ship the previous round's snapshot")
	}
	r2 := r1
	// A pong answering a speculative ping can land in P2 and write a.st
	// outside any merge: the next round must not ship the stale snapshot.
	a.onPong(&recMsg{Kind: kPong, From: 3, Epoch: a.epoch})
	merge(newSysState(a.st.n, a.st.l))
	r3 := ship()
	if r3 == r2 {
		t.Fatal("a round after a write outside the merge shipped the previous round's snapshot")
	}
	merge(news) // teaches a the failures
	r4 := ship()
	if r4 == r3 {
		t.Fatal("a round after a merge that changed something shipped the previous round's snapshot")
	}
	if !statesEqual(r1, sent1) {
		t.Fatalf("a shipped snapshot was written: %v, want %v", entries(r1), entries(sent1))
	}
	// A last merge that changes nothing ends P2 at round 4 >= target:
	// finalState holds what the last round shipped, in storage of its own
	// that later writes to a.st do not reach, and P2's scratch goes.
	merge(news)
	r.e.RunUntil(a.busyUntil)
	if a.finalState == nil || !statesEqual(a.finalState, r4) {
		t.Fatalf("P2 ended with finalState %v, want the last round's %v", a.finalState, entries(r4))
	}
	if a.finalState == r4 || a.finalState == a.st || &a.finalState.up[0] == &r4.up[0] {
		t.Fatal("finalState shares storage with a round snapshot or a.st")
	}
	if a.ep.inbox != nil || a.ep.spareRow != nil || a.snap != nil {
		t.Fatal("P2's inbox rows and snapshot outlived P2")
	}
}
