package topology

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMeshConstruction(t *testing.T) {
	m := NewMesh(4, 4)
	if m.Routers() != 16 {
		t.Fatalf("Routers = %d, want 16", m.Routers())
	}
	if got, want := len(m.Links()), 2*4*3; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	// Corner has degree 2, edge 3, interior 4.
	if m.Degree(0) != 2 {
		t.Errorf("corner degree = %d, want 2", m.Degree(0))
	}
	if m.Degree(1) != 3 {
		t.Errorf("edge degree = %d, want 3", m.Degree(1))
	}
	if m.Degree(5) != 4 {
		t.Errorf("interior degree = %d, want 4", m.Degree(5))
	}
	x, y := m.MeshCoord(7)
	if x != 3 || y != 1 {
		t.Errorf("MeshCoord(7) = (%d,%d), want (3,1)", x, y)
	}
}

func TestHypercubeConstruction(t *testing.T) {
	hc := NewHypercube(4)
	if hc.Routers() != 16 {
		t.Fatalf("Routers = %d, want 16", hc.Routers())
	}
	if got, want := len(hc.Links()), 16*4/2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	for r := 0; r < 16; r++ {
		if hc.Degree(r) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", r, hc.Degree(r))
		}
	}
}

func TestPortTo(t *testing.T) {
	m := NewMesh(3, 3)
	p := m.PortTo(4, 5)
	if p < 0 || m.Adjacency(4)[p].To != 5 {
		t.Fatalf("PortTo(4,5) broken: %d", p)
	}
	if m.PortTo(0, 8) != -1 {
		t.Fatal("PortTo for non-neighbors should be -1")
	}
}

func TestLinkOther(t *testing.T) {
	l := Link{A: 3, B: 7}
	if l.Other(3) != 7 || l.Other(7) != 3 {
		t.Fatal("Link.Other broken")
	}
}

func TestBFSFullMesh(t *testing.T) {
	m := NewMesh(4, 4)
	v := NewView(m)
	b := v.BFS(0)
	if b.Height != 6 {
		t.Errorf("height = %d, want 6", b.Height)
	}
	if b.Dist[15] != 6 {
		t.Errorf("Dist[15] = %d, want 6", b.Dist[15])
	}
	if b.Reachable() != 16 {
		t.Errorf("Reachable = %d, want 16", b.Reachable())
	}
	// Parent chain from 15 must reach the root.
	r := 15
	for steps := 0; r != 0; steps++ {
		if steps > 16 {
			t.Fatal("parent chain does not terminate")
		}
		r = b.Parent[r]
	}
}

func TestBFSWithFailures(t *testing.T) {
	m := NewMesh(4, 4)
	v := NewView(m)
	// Fail the entire second column: routers 1, 5, 9, 13.
	for _, r := range []int{1, 5, 9, 13} {
		v.FailRouter(r)
	}
	b := v.BFS(0)
	// Column 0 is cut off from columns 2-3.
	if b.Dist[2] != -1 {
		t.Errorf("Dist[2] = %d, want unreachable", b.Dist[2])
	}
	if b.Dist[12] != 3 {
		t.Errorf("Dist[12] = %d, want 3", b.Dist[12])
	}
	if v.Connected() {
		t.Error("view should be disconnected")
	}
	comps := v.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 4 || len(comps[1]) != 8 {
		t.Errorf("component sizes = %d,%d, want 4,8", len(comps[0]), len(comps[1]))
	}
}

// BFS carves the tree's three arrays and its queue from one block, so a
// tree costs two allocations at any size, and BFSInto recomputes into a
// tree of the view's size without allocating. Recomputing into a used tree
// must give what a fresh one gives.
func TestBFSAllocs(t *testing.T) {
	for _, m := range []*Topology{NewMesh(2, 2), NewMesh(8, 8), NewMesh(32, 32), NewHypercube(10)} {
		v := NewView(m)
		v.FailRouter(1)
		if n := testing.AllocsPerRun(20, func() { v.BFS(0) }); n > 2 {
			t.Errorf("%d routers: BFS makes %.0f allocations, want <= 2", m.Routers(), n)
		}
		var b BFT
		v.BFSInto(&b, m.Routers()-1)
		if n := testing.AllocsPerRun(20, func() { v.BFSInto(&b, 0) }); n != 0 {
			t.Errorf("%d routers: BFSInto a sized tree makes %.0f allocations, want 0", m.Routers(), n)
		}
		fresh := v.BFS(0)
		if b.Root != fresh.Root || b.Height != fresh.Height || !slices.Equal(b.Dist, fresh.Dist) ||
			!slices.Equal(b.Parent, fresh.Parent) || !slices.Equal(b.ParentPort, fresh.ParentPort) {
			t.Errorf("%d routers: a reused tree differs from a fresh one", m.Routers())
		}
	}
}

func TestFailRouterKillsAttachedLinks(t *testing.T) {
	m := NewMesh(3, 3)
	v := NewView(m)
	v.FailRouter(4) // center: 4 links
	down := 0
	for _, up := range v.LinkUp {
		if !up {
			down++
		}
	}
	if down != 4 {
		t.Fatalf("links down = %d, want 4", down)
	}
}

func TestElectRoot(t *testing.T) {
	m := NewMesh(2, 2)
	v := NewView(m)
	if v.ElectRoot() != 0 {
		t.Fatal("root should be 0")
	}
	v.FailRouter(0)
	if v.ElectRoot() != 1 {
		t.Fatal("root should be 1 after 0 fails")
	}
}

func TestDiameterBoundFullMesh(t *testing.T) {
	m := NewMesh(8, 8)
	v := NewView(m)
	bound, bft := v.DiameterBound()
	if bft.Root != 0 {
		t.Fatalf("root = %d, want 0", bft.Root)
	}
	diam := v.Diameter()
	if diam != 14 {
		t.Fatalf("diameter = %d, want 14", diam)
	}
	if bound < diam {
		t.Fatalf("bound %d < diameter %d", bound, diam)
	}
}

// Property: the 2h bound always dominates the true diameter on the live
// component containing the elected root, for random failure patterns.
func TestQuickDiameterBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMesh(2+rng.Intn(6), 2+rng.Intn(6))
		v := NewView(m)
		for r := 0; r < m.Routers(); r++ {
			if rng.Float64() < 0.15 {
				v.FailRouter(r)
			}
		}
		for l := range v.LinkUp {
			if rng.Float64() < 0.1 {
				v.FailLink(l)
			}
		}
		bound, bft := v.DiameterBound()
		if bft == nil {
			return true
		}
		// Restrict the diameter check to the root's component: the
		// recovery algorithm assumes connectivity (§4.2).
		sub := v.Clone()
		for r := range sub.RouterUp {
			if sub.RouterUp[r] && bft.Dist[r] < 0 {
				sub.FailRouter(r)
			}
		}
		return bound >= sub.Diameter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDefaultTablesMeshRoutes(t *testing.T) {
	m := NewMesh(4, 4)
	tb := DefaultTables(m)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			path := tb.Route(m, s, d)
			if path == nil {
				t.Fatalf("no route %d->%d", s, d)
			}
			sx, sy := m.MeshCoord(s)
			dx, dy := m.MeshCoord(d)
			wantLen := abs(sx-dx) + abs(sy-dy) + 1
			if len(path) != wantLen {
				t.Fatalf("route %d->%d len %d, want %d", s, d, len(path), wantLen)
			}
		}
	}
	v := NewView(m)
	if !tb.DependencyAcyclic(v) {
		t.Fatal("dimension-order mesh routing must be deadlock-free")
	}
}

func TestDefaultTablesHypercube(t *testing.T) {
	hc := NewHypercube(4)
	tb := DefaultTables(hc)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			path := tb.Route(hc, s, d)
			if path == nil {
				t.Fatalf("no route %d->%d", s, d)
			}
			want := popcount(uint(s^d)) + 1
			if len(path) != want {
				t.Fatalf("route %d->%d len %d, want %d", s, d, len(path), want)
			}
		}
	}
	if !tb.DependencyAcyclic(NewView(hc)) {
		t.Fatal("e-cube routing must be deadlock-free")
	}
}

func TestUpDownTablesFullConnectivity(t *testing.T) {
	m := NewMesh(4, 4)
	v := NewView(m)
	_, bft := v.DiameterBound()
	tb := UpDownTables(v, bft)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if tb.Route(m, s, d) == nil {
				t.Fatalf("no up*/down* route %d->%d", s, d)
			}
		}
	}
	if !tb.DependencyAcyclic(v) {
		t.Fatal("up*/down* routing must be deadlock-free")
	}
}

func TestUpDownTablesAfterFailure(t *testing.T) {
	m := NewMesh(4, 4)
	v := NewView(m)
	v.FailRouter(5)
	v.FailLink(m.Adjacency(0)[0].Link) // also kill link 0-1
	_, bft := v.DiameterBound()
	tb := UpDownTables(v, bft)
	for s := 0; s < 16; s++ {
		if !v.RouterUp[s] {
			continue
		}
		for d := 0; d < 16; d++ {
			if !v.RouterUp[d] {
				continue
			}
			path := tb.Route(m, s, d)
			if path == nil {
				t.Fatalf("no route %d->%d after failure", s, d)
			}
			for _, r := range path {
				if !v.RouterUp[r] {
					t.Fatalf("route %d->%d passes failed router %d", s, d, r)
				}
			}
		}
	}
	if !tb.DependencyAcyclic(v) {
		t.Fatal("post-failure routing must be deadlock-free")
	}
}

// Property: for random failures leaving the elected root's component, the
// up*/down* tables connect every live pair in that component and the channel
// dependency graph stays acyclic. This is the §4.4 guarantee.
func TestQuickUpDownSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var topo *Topology
		if rng.Intn(2) == 0 {
			topo = NewMesh(2+rng.Intn(5), 2+rng.Intn(5))
		} else {
			topo = NewHypercube(1 + rng.Intn(4))
		}
		v := NewView(topo)
		for r := 0; r < topo.Routers(); r++ {
			if rng.Float64() < 0.12 {
				v.FailRouter(r)
			}
		}
		for l := range v.LinkUp {
			if rng.Float64() < 0.08 {
				v.FailLink(l)
			}
		}
		_, bft := v.DiameterBound()
		if bft == nil {
			return true
		}
		tb := UpDownTables(v, bft)
		if !tb.DependencyAcyclic(v) {
			return false
		}
		for s := 0; s < topo.Routers(); s++ {
			if !v.RouterUp[s] || bft.Dist[s] < 0 {
				continue
			}
			for d := 0; d < topo.Routers(); d++ {
				if !v.RouterUp[d] || bft.Dist[d] < 0 {
					continue
				}
				path := tb.Route(topo, s, d)
				if path == nil {
					return false
				}
				for _, r := range path {
					if !v.RouterUp[r] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRouteDetectsDeadEnd(t *testing.T) {
	m := NewMesh(2, 2)
	tb := NewTables(4)
	if tb.Route(m, 0, 3) != nil {
		t.Fatal("empty tables should yield nil route")
	}
	if got := tb.Route(m, 2, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("self route = %v, want [2]", got)
	}
}

// NewTables is one n×n array of byte-wide entries: row r starts n entries
// after row r-1, and a row is capped at its own n so that appending to one
// can never run into the next.
func TestNewTablesIsOneBackingArray(t *testing.T) {
	const n = 9
	tb := NewTables(n)
	for r := range tb {
		if len(tb[r]) != n || cap(tb[r]) != n {
			t.Fatalf("row %d has len %d cap %d, want %d and %d", r, len(tb[r]), cap(tb[r]), n, n)
		}
		if off := uintptr(unsafe.Pointer(&tb[r][0])) - uintptr(unsafe.Pointer(&tb[0][0])); off != uintptr(r*n) {
			t.Fatalf("row %d starts %d bytes into the table, want %d", r, off, r*n)
		}
		for d, p := range tb[r] {
			want := Port(-1)
			if d == r {
				want = PortLocal
			}
			if p != want {
				t.Fatalf("tb[%d][%d] = %d, want %d", r, d, p, want)
			}
		}
	}
	grown := append(tb[3], 5)
	grown[0] = 0
	if tb[4][0] != -1 || tb[3][0] != -1 {
		t.Fatal("appending to a row wrote into the table")
	}
	if len(NewTables(0)) != 0 {
		t.Fatal("NewTables(0) is not empty")
	}
}

// An irregular graph has no coordinate routing: DefaultTables routes it by
// up*/down*, which must reach every pair without a dependency cycle.
func TestGraphDefaultTables(t *testing.T) {
	g := NewGraph(6, []Link{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}})
	if g.Kind() != KindGraph || g.Routers() != 6 || len(g.Links()) != 7 {
		t.Fatalf("graph: kind %v, %d routers, %d links", g.Kind(), g.Routers(), len(g.Links()))
	}
	for r, want := range []int{2, 2, 3, 3, 2, 2} {
		if g.Degree(r) != want {
			t.Fatalf("router %d has degree %d, want %d", r, g.Degree(r), want)
		}
	}
	for id, l := range g.Links() {
		pa, pb := g.PortTo(l.A, l.B), g.PortTo(l.B, l.A)
		if pa < 0 || pb < 0 || g.Adjacency(l.A)[pa].Link != id || g.Adjacency(l.B)[pb].Link != id {
			t.Fatalf("link %d (%d-%d) is not a port at both ends", id, l.A, l.B)
		}
	}
	tb := DefaultTables(g)
	if !tb.DependencyAcyclic(NewView(g)) {
		t.Fatal("default tables of the graph can deadlock")
	}
	for s := 0; s < g.Routers(); s++ {
		for d := 0; d < g.Routers(); d++ {
			if path := tb.Route(g, s, d); path == nil || path[len(path)-1] != d {
				t.Fatalf("no route %d→%d: %v", s, d, path)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a link to a router outside the graph should panic")
		}
	}()
	NewGraph(2, []Link{{0, 2}})
}

func TestMeshCoordPanicsOnHypercube(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MeshCoord on hypercube should panic")
		}
	}()
	NewHypercube(2).MeshCoord(0)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func popcount(x uint) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
