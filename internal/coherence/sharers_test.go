package coherence

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// members lists a sharer set's members in ForEach order.
func members(s *SharerSet) []int {
	var out []int
	s.ForEach(func(id int) { out = append(out, id) })
	return out
}

// agrees fails t unless s and the reference ref have the same members by
// every read a SharerSet offers.
func agrees(t *testing.T, s *SharerSet, ref NodeSet, probes []int, what string) {
	t.Helper()
	var want []int
	ref.ForEach(func(id int) { want = append(want, id) })
	if got := members(s); !slices.Equal(got, want) {
		t.Fatalf("%s: ForEach visits %v, want %v", what, got, want)
	}
	if got := s.Count(); got != len(want) {
		t.Fatalf("%s: Count = %d, want %d", what, got, len(want))
	}
	if got := s.Empty(); got != (len(want) == 0) {
		t.Fatalf("%s: Empty = %v with %d members", what, got, len(want))
	}
	for _, id := range probes {
		if got := s.Has(id); got != ref.Has(id) {
			t.Fatalf("%s: Has(%d) = %v, want %v", what, id, got, ref.Has(id))
		}
	}
}

// Random sequences of adds, removes, clears and fills agree with a NodeSet
// holding the same members, across the inline and spilled forms.
func TestSharerSetMatchesNodeSet(t *testing.T) {
	for _, nodes := range []int{8, 128, 1024, maxDirNodes} {
		t.Run(fmt.Sprintf("%d-nodes", nodes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nodes)))
			var s SharerSet
			ref := NewNodeSet(nodes)
			var log []string
			for step := 0; step < 2000; step++ {
				id := rng.Intn(nodes)
				if rng.Intn(4) == 0 {
					id = nodes - 1 - rng.Intn(min(nodes, 3)) // the top word
				}
				switch op := rng.Intn(100); {
				case op < 55:
					log = append(log, fmt.Sprintf("Add %d", id))
					s.Add(id)
					ref.Add(id)
				case op < 90:
					log = append(log, fmt.Sprintf("Remove %d", id))
					s.Remove(id)
					ref.Remove(id)
				case op < 97:
					log = append(log, "Clear")
					s.Clear()
					clear(ref)
				default:
					mod := 2 + rng.Intn(nodes)
					up := func(n int) bool { return n%mod == 0 }
					log = append(log, fmt.Sprintf("fill every %d", mod))
					s.fill(nodes, up)
					clear(ref)
					for n := 0; n < nodes; n++ {
						if up(n) {
							ref.Add(n)
						}
					}
				}
				if len(log) > 8 {
					log = log[1:]
				}
				probes := []int{id, 0, nodes - 1, rng.Intn(nodes)}
				ref.ForEach(func(m int) { probes = append(probes, m) })
				agrees(t, &s, ref, probes, fmt.Sprint(log))
			}
		})
	}
}

// Three sharers stay inline; the fourth spills, and the spilled set still
// reads in ascending order.
func TestSharerSetSpillsAtFourthSharer(t *testing.T) {
	var s SharerSet
	for _, id := range []int{900, 7, 300} {
		s.Add(id)
	}
	if s.spill != nil {
		t.Fatal("three sharers spilled")
	}
	s.Add(7) // already a member: no spill
	if s.spill != nil || s.Count() != 3 {
		t.Fatalf("re-adding a member spilled or counted twice: count %d", s.Count())
	}
	s.Add(1023)
	if s.spill == nil {
		t.Fatal("a fourth sharer did not spill")
	}
	if got, want := members(&s), []int{7, 300, 900, 1023}; !slices.Equal(got, want) {
		t.Fatalf("spilled set visits %v, want %v", got, want)
	}
	s.Clear()
	if s.spill != nil || !s.Empty() {
		t.Fatal("Clear kept the spilled bitmap")
	}
}

// ForEach visits every member once, ascending, while the visitor removes
// members, in both forms.
func TestSharerSetRemoveDuringForEach(t *testing.T) {
	for _, ids := range [][]int{{2, 5, 9}, {2, 5, 9, 64, 700}} {
		var s SharerSet
		for _, id := range ids {
			s.Add(id)
		}
		var seen []int
		s.ForEach(func(id int) {
			seen = append(seen, id)
			if id != 5 {
				s.Remove(id)
			}
		})
		if !slices.Equal(seen, ids) {
			t.Fatalf("%v: ForEach with removals visited %v", ids, seen)
		}
		if got := members(&s); !slices.Equal(got, []int{5}) {
			t.Fatalf("%v: %v left after removing all but 5", ids, got)
		}
	}
}

// A clone shares nothing with its original, spilled bitmap included.
func TestSharerSetCloneIsIndependent(t *testing.T) {
	for _, ids := range [][]int{{1, 2}, {1, 2, 3, 4, 500}} {
		var s SharerSet
		for _, id := range ids {
			s.Add(id)
		}
		c := s.clone()
		c.Remove(2)
		c.Add(999)
		if got := members(&s); !slices.Equal(got, ids) {
			t.Fatalf("changing a clone of %v changed the original to %v", ids, got)
		}
		s.Remove(1)
		if !c.Has(1) {
			t.Fatalf("changing %v changed its clone", ids)
		}
	}
}

// Equality compares members: a spilled set whose members fall back to
// three equals an inline set of the same three, and differs from others.
func TestSharerSetEqualAcrossForms(t *testing.T) {
	var inline, spilled, other SharerSet
	for _, id := range []int{3, 40, 1000} {
		inline.Add(id)
		other.Add(id + 1)
	}
	for _, id := range []int{3, 40, 1000, 77} {
		spilled.Add(id)
	}
	if spilled.equal(&inline) {
		t.Fatal("four members equal three")
	}
	spilled.Remove(77)
	if spilled.spill == nil {
		t.Fatal("the spilled set went back inline; the test needs both forms")
	}
	if !spilled.equal(&inline) || !inline.equal(&spilled) {
		t.Fatal("a spilled and an inline set with the same members differ")
	}
	if inline.equal(&other) || spilled.equal(&other) || other.equal(&spilled) {
		t.Fatal("sets with different members compare equal")
	}
}

// On a 1 024-node machine, a pending-invalidation line comes out of
// ScanLiveness shared by exactly the live nodes, in one bitmap sized for
// the machine.
func TestScanLivenessPendingInvalSharedByLiveNodes(t *testing.T) {
	const nodes = 1024
	up := func(n int) bool { return n%5 != 0 }
	d := NewDirectory(nodes)
	e := d.Get(0x80)
	e.State, e.PendingReq, e.AcksLeft = DirPendingInval, 9, 3
	d.ScanLiveness(up)
	e = d.Peek(0x80)
	if e.State != DirShared || e.AcksLeft != 0 {
		t.Fatalf("pending-inval line became %v with %d acks left", e.State, e.AcksLeft)
	}
	var want []int
	for n := 0; n < nodes; n++ {
		if up(n) {
			want = append(want, n)
		}
	}
	if got := members(&e.Sharers); !slices.Equal(got, want) {
		t.Fatalf("sharers after ScanLiveness: %d nodes, want the %d live ones", len(got), len(want))
	}
	if w := *e.Sharers.spill; len(w) != nodes/64 || cap(w) != nodes/64 {
		t.Fatalf("spilled bitmap has %d words (cap %d), want %d", len(w), cap(w), nodes/64)
	}
}
