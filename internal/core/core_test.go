package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flashfc/internal/topology"
)

// Unit tests for the recovery algorithm's pure parts: state merging, the
// termination bound, and barrier topology. Whole-algorithm behaviour is
// covered by the machine and experiments integration tests.

// mergeTri is the reference lattice join the packed state is checked
// against: down wins over up wins over unknown.
func mergeTri(a, b tri) tri {
	if a == triDown || b == triDown {
		return triDown
	}
	if a == triUp || b == triUp {
		return triUp
	}
	return triUnknown
}

func TestMergeTriOrdering(t *testing.T) {
	cases := []struct{ a, b, want tri }{
		{triUnknown, triUnknown, triUnknown},
		{triUnknown, triUp, triUp},
		{triUp, triUnknown, triUp},
		{triUp, triDown, triDown},
		{triDown, triUp, triDown},
		{triDown, triUnknown, triDown},
		{triUp, triUp, triUp},
	}
	for _, c := range cases {
		if got := mergeTri(c.a, c.b); got != c.want {
			t.Errorf("mergeTri(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randomState(rng *rand.Rand, nodes, links int) *sysState {
	s := newSysState(nodes, links)
	for i := 0; i < nodes; i++ {
		s.setNode(i, tri(rng.Intn(3)))
		s.setRouter(i, tri(rng.Intn(3)))
	}
	for l := 0; l < links; l++ {
		s.setLink(l, tri(rng.Intn(3)))
	}
	return s
}

// entries reads s back one entry at a time through the accessors, in the
// packed layout's order: nodes, routers, links.
func entries(s *sysState) []tri {
	var out []tri
	for i := 0; i < s.n; i++ {
		out = append(out, s.node(i))
	}
	for r := 0; r < s.n; r++ {
		out = append(out, s.router(r))
	}
	for l := 0; l < s.l; l++ {
		out = append(out, s.link(l))
	}
	return out
}

func statesEqual(a, b *sysState) bool { return slices.Equal(entries(a), entries(b)) }

// canonical reports whether s has no entry with both bits set and no bit set
// past its last entry.
func canonical(s *sysState) bool {
	used := 2*s.n + s.l
	for w := range s.up {
		if s.up[w]&s.down[w] != 0 {
			return false
		}
		if tail := used - 64*w; tail < 64 && (s.up[w]|s.down[w])>>tail != 0 {
			return false
		}
	}
	return true
}

// Property: the packed state is indistinguishable from a byte-per-entry
// reference merged with mergeTri — every entry, merge's change report, and
// the canonical encoding, after merge, set and clone — at sizes that end
// just before, on and just after a word boundary, and on the 32×32 mesh.
func TestQuickPackedStateMatchesReference(t *testing.T) {
	mesh := topology.NewMesh(32, 32)
	sizes := [][2]int{ // {nodes, links}: 2n+l = 63, 64, 65, 127, 128, 129
		{20, 23}, {20, 24}, {20, 25}, {40, 47}, {40, 48}, {40, 49},
		{mesh.Routers(), len(mesh.Links())},
	}
	check := func(s *sysState, ref []tri) bool {
		return slices.Equal(entries(s), ref) && canonical(s)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, sz := range sizes {
			n, l := sz[0], sz[1]
			a := randomState(rng, n, l)
			var b *sysState
			if rng.Intn(2) == 0 {
				b = randomState(rng, n, l)
			} else {
				// A near copy, so merges that change nothing (or one
				// entry) are common too.
				b = a.clone()
				for k := rng.Intn(3); k > 0; k-- {
					b.set(rng.Intn(2*n+l), tri(rng.Intn(3)))
				}
			}
			ra, rb := entries(a), entries(b)
			if !check(a, ra) || !check(b, rb) || a.equal(b) != slices.Equal(ra, rb) {
				return false
			}
			refChanged := false
			for i := range ra {
				if m := mergeTri(ra[i], rb[i]); m != ra[i] {
					ra[i], refChanged = m, true
				}
			}
			if a.merge(b) != refChanged || !check(a, ra) || !check(b, rb) {
				return false
			}
			for k := 0; k < 8; k++ {
				i, v := rng.Intn(2*n+l), tri(rng.Intn(3))
				a.set(i, v)
				ra[i] = v
			}
			if !check(a, ra) {
				return false
			}
			c := a.clone()
			if !check(c, ra) {
				return false
			}
			if !c.equal(a) {
				return false
			}
			c.set(rng.Intn(2*n+l), triDown)
			if !check(a, ra) { // the clone owns its bits
				return false
			}
			if c.equal(a) != slices.Equal(entries(c), ra) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: merge is commutative — the gossip outcome is independent of
// message arrival order, which the dissemination phase depends on.
func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := randomState(rng, 8, 10)
		ab := a.clone()
		ab.merge(b)
		ba := b.clone()
		ba.merge(a)
		return statesEqual(ab, ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge is associative.
func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := randomState(rng, 8, 10)
		c := randomState(rng, 8, 10)
		abc1 := a.clone()
		abc1.merge(b)
		abc1.merge(c)
		bc := b.clone()
		bc.merge(c)
		abc2 := a.clone()
		abc2.merge(bc)
		return statesEqual(abc1, abc2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge is idempotent and reports no change on self-merge.
func TestQuickMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := a.clone()
		if b.merge(a) {
			return false // self-merge must not change anything
		}
		return statesEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merge monotonicity — merging never resurrects a down component.
func TestQuickMergeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomState(rng, 8, 10)
		b := randomState(rng, 8, 10)
		before := a.clone()
		a.merge(b)
		for i := 0; i < 8; i++ {
			if before.node(i) == triDown && a.node(i) != triDown ||
				before.router(i) == triDown && a.router(i) != triDown {
				return false
			}
		}
		for l := 0; l < 10; l++ {
			if before.link(l) == triDown && a.link(l) != triDown {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSysStateWordsAndView(t *testing.T) {
	s := newSysState(8, 10)
	if s.words() != 8+8+10+4 {
		t.Fatalf("words = %d", s.words())
	}
	topo := topology.NewMesh(4, 2)
	for i := 0; i < 8; i++ {
		s.setRouter(i, triUp)
	}
	for l := 0; l < 10; l++ {
		s.setLink(l, triUp)
	}
	s.setRouter(3, triDown)
	s.setLink(0, triUnknown) // unknown is treated as down in views
	var v topology.View
	s.viewInto(&v, topo)
	if v.RouterUp[3] || v.LinkUp[0] {
		t.Fatal("view should treat down/unknown as unavailable")
	}
	if !v.RouterUp[0] {
		t.Fatal("up router lost in view")
	}
	s.setNode(2, triUp)
	s.setNode(5, triUp)
	fn := s.appendFunctioning([]int{9})
	if len(fn) != 3 || fn[0] != 9 || fn[1] != 2 || fn[2] != 5 {
		t.Fatalf("appendFunctioning = %v", fn)
	}
	// The charged size counts one word per entry however the host packs
	// the entries, up to the 32×32 mesh.
	mesh := topology.NewMesh(32, 32)
	big := newSysState(mesh.Routers(), len(mesh.Links()))
	if want := 2*mesh.Routers() + len(mesh.Links()) + 4; big.words() != want {
		t.Fatalf("32x32 words = %d, want %d", big.words(), want)
	}
}

func TestRecMsgHelpers(t *testing.T) {
	st := newSysState(4, 4)
	m := &recMsg{Kind: kState, State: st, Round: 3}
	if m.bytes() <= 16 {
		t.Fatal("state message should be larger than a control message")
	}
	for _, k := range []msgKind{kPing, kPong, kState, kBarrierUp, kBarrierDown, kFlushDone, msgKind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if (&recMsg{Kind: kPing}).bytes() != 16 {
		t.Fatal("control message size wrong")
	}
	if m.String() == "" {
		t.Fatal("empty message string")
	}
}

func TestReverseRoute(t *testing.T) {
	a := &Agent{}
	if a.reverse(nil) != nil {
		t.Fatal("nil route should stay nil")
	}
	got := a.reverse([]int{1, 2, 3})
	if len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Fatalf("reverse = %v", got)
	}
	// Within an epoch routes are carved from the arena, each capped so
	// that no route can grow into the next; a full block starts a new one
	// and leaves the routes already carved as they were.
	a.ep = &epochScratch{paths: make([]int, 0, routeBlock)}
	r1 := a.reverse([]int{1, 2, 3})
	r2 := a.reverse([]int{4, 5})
	if &r1[0] != &a.ep.paths[0] || cap(r1) != 3 {
		t.Fatalf("first route not carved at the arena's start with its own cap: cap %d", cap(r1))
	}
	_ = append(r1, 99)
	long := a.carve(routeBlock)
	long[0] = 7
	if !slices.Equal(r1, []int{3, 2, 1}) || !slices.Equal(r2, []int{5, 4}) || len(a.ep.paths) != routeBlock {
		t.Fatalf("carved routes moved: %v %v (arena %d long)", r1, r2, len(a.ep.paths))
	}
}

func TestPhaseStrings(t *testing.T) {
	for p := PhaseIdle; p <= PhaseShutdown+1; p++ {
		if p.String() == "" {
			t.Fatal("empty phase name")
		}
	}
}
