package topology

import "testing"

func TestPartitionMeshStripes(t *testing.T) {
	topo := NewMesh(8, 8)
	r := PartitionMesh(topo, 4)
	if r.Count() != 4 {
		t.Fatalf("count = %d, want 4", r.Count())
	}
	// Whole rows, contiguous, balanced to one row: rows 2y and 2y+1 in
	// stripe y.
	for n := 0; n < topo.Routers(); n++ {
		_, y := topo.MeshCoord(n)
		if want := y / 2; r.Of(n) != want {
			t.Fatalf("node %d (row %d) in region %d, want %d", n, y, r.Of(n), want)
		}
	}
	// The only inter-region links are the vertical links between adjacent
	// stripes: w links per seam, 3 seams.
	if r.BoundaryLinks() != 8*3 {
		t.Fatalf("boundary links = %d, want 24", r.BoundaryLinks())
	}
	nb := 0
	for id, l := range topo.Links() {
		cross := r.Of(l.A) != r.Of(l.B)
		if cross != r.CrossRegion(id) {
			t.Fatalf("link %d cross-region flag %v, endpoints disagree", id, r.CrossRegion(id))
		}
		if cross {
			nb++
		}
	}
	if nb != r.BoundaryLinks() {
		t.Fatalf("recount %d boundary links, accessor says %d", nb, r.BoundaryLinks())
	}
}

func TestPartitionMeshClamps(t *testing.T) {
	topo := NewMesh(4, 2)
	if r := PartitionMesh(topo, 16); r.Count() != 2 {
		t.Fatalf("target 16 on h=2 mesh gave %d regions, want 2", r.Count())
	}
	if r := PartitionMesh(topo, 0); r.Count() != 1 {
		t.Fatalf("target 0 gave %d regions, want 1", r.Count())
	}
}

func TestPartitionNonMeshSingleRegion(t *testing.T) {
	topo := NewHypercube(3)
	r := PartitionMesh(topo, 4)
	if r.Count() != 1 || r.BoundaryLinks() != 0 {
		t.Fatalf("hypercube partition: %d regions, %d boundary links; want 1, 0", r.Count(), r.BoundaryLinks())
	}
	if a := AutoRegions(topo); a.Count() != 1 {
		t.Fatalf("AutoRegions(hypercube) = %d regions, want 1", a.Count())
	}
}

func TestAutoRegions(t *testing.T) {
	cases := []struct {
		w, h, want int
	}{
		{4, 4, 4},    // small mesh: one stripe per row
		{8, 8, 8},    //
		{32, 32, 16}, // capped at maxAutoRegions
		{4, 2, 2},
	}
	for _, c := range cases {
		r := AutoRegions(NewMesh(c.w, c.h))
		if r.Count() != c.want {
			t.Fatalf("AutoRegions(%dx%d) = %d regions, want %d", c.w, c.h, r.Count(), c.want)
		}
		// Stripes must be contiguous in row-major node order.
		prev := 0
		for n := 0; n < r.Topology().Routers(); n++ {
			if r.Of(n) < prev {
				t.Fatalf("%dx%d: region ids not monotone over row-major nodes", c.w, c.h)
			}
			prev = r.Of(n)
		}
	}
}

func TestMesh32x32Preset(t *testing.T) {
	topo := NewMesh32x32()
	if topo.Routers() != 1024 {
		t.Fatalf("32x32 preset has %d routers, want 1024", topo.Routers())
	}
	if w, h := topo.MeshSize(); w != 32 || h != 32 {
		t.Fatalf("32x32 preset reports %dx%d", w, h)
	}
	r := AutoRegions(topo)
	if r.Count() != 16 || r.BoundaryLinks() != 32*15 {
		t.Fatalf("32x32 AutoRegions: %d regions, %d boundary links; want 16, 480", r.Count(), r.BoundaryLinks())
	}
}

// TestMesh64x64Route builds the 4096-node preset, generates its
// dimension-order tables and spot-routes corner-to-corner — the smoke-level
// sanity that topology construction holds up at TSAR scale. Gated out of
// -short runs: table generation is O(n²).
func TestMesh64x64Route(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-node route sanity skipped in -short mode")
	}
	topo := NewMesh64x64()
	if topo.Routers() != 4096 {
		t.Fatalf("64x64 preset has %d routers, want 4096", topo.Routers())
	}
	tb := DefaultTables(topo)
	// Corner to corner: dimension-order path length is the Manhattan
	// distance, 63+63 hops → 127 routers on the path.
	path := tb.Route(topo, 0, 4095)
	if len(path) != 127 {
		t.Fatalf("corner-to-corner route has %d routers, want 127", len(path))
	}
	// A few cross-stripe routes through the AutoRegions decomposition.
	r := AutoRegions(topo)
	if r.Count() != 16 {
		t.Fatalf("64x64 AutoRegions = %d, want 16", r.Count())
	}
	for _, pair := range [][2]int{{5, 4000}, {63 * 64, 63}, {2048, 2111}} {
		p := tb.Route(topo, pair[0], pair[1])
		if p == nil {
			t.Fatalf("no route %d -> %d", pair[0], pair[1])
		}
		if p[len(p)-1] != pair[1] {
			t.Fatalf("route %d -> %d ends at %d", pair[0], pair[1], p[len(p)-1])
		}
	}
}
