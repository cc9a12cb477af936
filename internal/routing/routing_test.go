package routing

import (
	"math/rand"
	"testing"

	"flashfc/internal/topology"
)

// repairFor runs one strategy's repair on a failed view the way P3 does:
// stabilized view, BFT from the elected root.
func repairFor(t *testing.T, s Strategy, v *topology.View) Repair {
	t.Helper()
	_, bft := v.DiameterBound()
	if bft == nil {
		t.Fatal("no live routers")
	}
	return s.RepairTables(v, bft)
}

// checkRepair verifies the strategy contract on a view: every pair the
// dissemination BFT spans (the root component — the part of the machine
// that survives recovery, matching what the paper's repair serves) routes
// end to end over live elements, and the installed tables'
// channel-dependency graph is acyclic.
func checkRepair(t *testing.T, s Strategy, v *topology.View) Repair {
	t.Helper()
	rep := repairFor(t, s, v)
	if !rep.Tables.DependencyAcyclic(v) {
		t.Fatalf("%s: channel-dependency cycle", s.Name())
	}
	_, bft := v.DiameterBound()
	var comp []int
	for r, d := range bft.Dist {
		if d >= 0 {
			comp = append(comp, r)
		}
	}
	for _, r := range comp {
		for _, d := range comp {
			if r == d {
				continue
			}
			path := rep.Tables.Route(v.T, r, d)
			if path == nil {
				t.Fatalf("%s: no route %d→%d", s.Name(), r, d)
			}
			for i := 0; i < len(path)-1; i++ {
				hop := path[i]
				ok := false
				for _, a := range v.T.Adjacency(hop) {
					if a.To == path[i+1] && v.Usable(hop, a) {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("%s: route %d→%d crosses dead hop %d→%d",
						s.Name(), r, d, hop, path[i+1])
				}
			}
		}
	}
	return rep
}

func TestRegistry(t *testing.T) {
	want := []string{"adaptive", "incremental", "paper"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if s, err := Get(""); err != nil || s.Name() != "paper" {
		t.Fatalf(`Get("") = %v, %v; want paper`, s, err)
	}
	if _, err := Get("nosuch"); err == nil {
		t.Fatal("Get(nosuch) did not fail")
	}
	if Paper.Drain() != DrainFull || Incremental.Drain() != DrainPartial || Adaptive.Drain() != DrainNone {
		t.Fatal("drain kinds drifted from their documented disciplines")
	}
}

func TestPaperRepairIsFullUpDown(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	v := topology.NewView(topo)
	v.FailRouter(5)
	_, bft := v.DiameterBound()
	rep := Paper.RepairTables(v, bft)
	want := topology.UpDownTables(v, bft)
	for r := range want {
		for d := range want[r] {
			if rep.Tables[r][d] != want[r][d] {
				t.Fatalf("paper repair[%d][%d] = %d, want up*/down* %d", r, d, rep.Tables[r][d], want[r][d])
			}
		}
	}
	if rep.Fallback {
		t.Fatal("paper repair reported a fallback")
	}
	for r, p := range rep.PatchedPerRouter {
		if p != topo.Routers() {
			t.Fatalf("paper PatchedPerRouter[%d] = %d, want full row %d", r, p, topo.Routers())
		}
	}
}

func TestIncrementalSingleLink(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	v := topology.NewView(topo)
	// Fail one horizontal link in the middle of the mesh.
	for i, l := range topo.Links() {
		if l.A == 5 && l.B == 6 || l.A == 6 && l.B == 5 {
			v.FailLink(i)
		}
	}
	rep := checkRepair(t, Incremental, v)
	if rep.Fallback {
		t.Fatal("incremental fell back on a single link failure")
	}
	pristine := topology.DefaultTables(topo)
	patched, intact := 0, 0
	for r := 0; r < topo.Routers(); r++ {
		patched += rep.PatchedPerRouter[r]
		for d := 0; d < topo.Routers(); d++ {
			if rep.Tables[r][d] == pristine[r][d] {
				intact++
			}
		}
	}
	if patched == 0 {
		t.Fatal("incremental patched nothing across a dead link")
	}
	if patched >= topo.Routers()*topo.Routers()/2 {
		t.Fatalf("incremental patched %d entries — not incremental", patched)
	}
	if intact == 0 {
		t.Fatal("no pristine entries survived")
	}
}

func TestIncrementalFalseAlarmPatchesNothing(t *testing.T) {
	for _, topo := range []*topology.Topology{topology.NewMesh(4, 4), topology.NewHypercube(4)} {
		v := topology.NewView(topo)
		rep := checkRepair(t, Incremental, v)
		if got := rep.TotalPatched(); got != 0 {
			t.Fatalf("false alarm patched %d entries", got)
		}
		rep = checkRepair(t, Adaptive, v)
		if got := rep.TotalPatched(); got != 0 {
			t.Fatalf("adaptive false alarm patched %d entries", got)
		}
	}
}

func TestAdaptiveRoutesAroundDeadRouter(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	v := topology.NewView(topo)
	v.FailRouter(5)
	rep := checkRepair(t, Adaptive, v)
	if rep.TotalPatched() == 0 {
		t.Fatal("adaptive patched nothing around a dead router")
	}
}

// TestStrategiesQuickSoundness extends the topology package's
// TestQuickUpDownSoundness property to every registered strategy:
// random-size mesh and hypercube graphs under random router and
// multi-link failures must yield acyclic, fully-connecting tables.
func TestStrategiesQuickSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		var topo *topology.Topology
		if rng.Intn(2) == 0 {
			topo = topology.NewMesh(2+rng.Intn(4), 2+rng.Intn(4))
		} else {
			topo = topology.NewHypercube(2 + rng.Intn(3))
		}
		v := topology.NewView(topo)
		for r := 0; r < topo.Routers(); r++ {
			if rng.Float64() < 0.10 {
				v.FailRouter(r)
			}
		}
		for l := range v.LinkUp {
			if rng.Float64() < 0.10 {
				v.FailLink(l)
			}
		}
		if v.ElectRoot() < 0 {
			continue
		}
		for _, name := range Names() {
			s, _ := Get(name)
			checkRepair(t, s, v)
		}
	}
}

// TestStrategiesUnderRandomFailures is the property test: every strategy
// must produce deadlock-free, fully-connecting tables on random surviving
// graphs of both topology kinds, including multi-link failures.
func TestStrategiesUnderRandomFailures(t *testing.T) {
	topos := map[string]*topology.Topology{
		"mesh4x4":    topology.NewMesh(4, 4),
		"hypercube4": topology.NewHypercube(4),
	}
	for tn, topo := range topos {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 40; trial++ {
			v := topology.NewView(topo)
			// Mix of router and multi-link failures.
			if trial%3 == 0 {
				v.FailRouter(rng.Intn(topo.Routers()))
			}
			for k := rng.Intn(3); k > 0; k-- {
				v.FailLink(rng.Intn(len(topo.Links())))
			}
			if v.ElectRoot() < 0 {
				continue
			}
			for _, name := range Names() {
				s, _ := Get(name)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s/%s trial %d panicked: %v", tn, name, trial, r)
						}
					}()
					checkRepair(t, s, v)
				}()
			}
		}
	}
}
