package coherence

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// A forked memory must see frozen writes, diverge privately, and leave the
// source and its base untouched.
func TestMemoryCOWFork(t *testing.T) {
	m := NewMemory(0, 1<<20)
	m.Write(0x100, 11)
	m.Write(0x200, 22)
	base := m.Freeze()

	f := ForkMemory(0, 1<<20, base)
	if got := f.Read(0x100); got != 11 {
		t.Fatalf("fork missed frozen write: %d", got)
	}
	if got := f.Read(0x300); got != InitialToken(0x300) {
		t.Fatalf("fork untouched line: %d", got)
	}
	f.Write(0x100, 99)
	f.Write(0x400, 44)
	if got := m.Read(0x100); got != 11 {
		t.Fatalf("fork write leaked into source: %d", got)
	}
	m.Write(0x200, 77)
	if got := f.Read(0x200); got != 22 {
		t.Fatalf("post-freeze source write leaked into fork: %d", got)
	}
	if got := f.TouchedLines(); got != 3 { // 0x100 (shadowed), 0x200, 0x400
		t.Fatalf("fork TouchedLines = %d, want 3", got)
	}
	if got := m.TouchedLines(); got != 2 {
		t.Fatalf("source TouchedLines = %d, want 2", got)
	}
}

// Freezing twice (a second snapshot after more writes) must fold the
// overlay into a fresh base without mutating the first base.
func TestMemoryRefreeze(t *testing.T) {
	m := NewMemory(0, 1<<20)
	m.Write(0x100, 1)
	base1 := m.Freeze()
	m.Write(0x100, 2)
	base2 := m.Freeze()
	if base1[0x100] != 1 {
		t.Fatalf("first base mutated: %d", base1[0x100])
	}
	if base2[0x100] != 2 {
		t.Fatalf("second base stale: %d", base2[0x100])
	}
}

func dirWith(t *testing.T, states map[Addr]DirState) *Directory {
	t.Helper()
	d := NewDirectory(4)
	for a, s := range states {
		e := d.Get(a)
		e.State = s
		if s == DirExclusive {
			e.Owner = 1
		}
		if s == DirShared {
			e.Sharers.Add(2)
		}
	}
	return d
}

// Source and fork directories must be fully independent after a freeze:
// entry mutation, Release, and Scrub on one side may not show on the other.
func TestDirectoryCOWForkIndependence(t *testing.T) {
	d := dirWith(t, map[Addr]DirState{
		0x000: DirExclusive,
		0x080: DirShared,
		0x100: DirIncoherent,
	})
	base := d.Freeze()
	f := ForkDirectory(4, base)

	// Mutating a copied-up entry in the fork leaves the source alone.
	fe := f.Get(0x000)
	fe.State = DirShared
	fe.Sharers.Add(3)
	if se := d.Lookup(0x000); se.State != DirExclusive || se.Sharers.Has(3) {
		t.Fatalf("fork entry mutation leaked into source: %+v", se)
	}

	// Deleting through a tombstone in the fork leaves the source alone.
	f.Get(0x080).State = DirInvalid
	f.Get(0x080).Sharers.Clear()
	f.Release(0x080)
	if f.Lookup(0x080) != nil {
		t.Fatal("fork Release left the entry visible")
	}
	if d.Lookup(0x080) == nil {
		t.Fatal("fork Release leaked into source")
	}

	// Scrub of a frozen incoherent entry works through the tombstone.
	if !f.Scrub(0x100) {
		t.Fatal("fork Scrub missed the frozen incoherent entry")
	}
	if f.Incoherent(0x100) {
		t.Fatal("scrubbed line still incoherent in fork")
	}
	if !d.Incoherent(0x100) {
		t.Fatal("fork Scrub leaked into source")
	}

	if got := f.Len(); got != 1 { // only 0x000 remains live in the fork
		t.Fatalf("fork Len = %d, want 1", got)
	}
	if got := d.Len(); got != 3 {
		t.Fatalf("source Len = %d, want 3", got)
	}
}

// Scan reads the frozen base in place: it must behave identically on a
// fork and on a never-frozen directory with the same contents.
func TestDirectoryScanAfterFork(t *testing.T) {
	states := map[Addr]DirState{
		0x000: DirExclusive,
		0x080: DirShared,
		0x100: DirPendingRecall,
	}
	plain := dirWith(t, states)
	forked := ForkDirectory(4, dirWith(t, states).Freeze())

	lostP := plain.Scan()
	lostF := forked.Scan()
	if len(lostP) != len(lostF) || len(lostF) != 2 {
		t.Fatalf("Scan lost %d (plain) vs %d (fork), want 2", len(lostP), len(lostF))
	}
	if plain.Len() != forked.Len() {
		t.Fatalf("post-Scan Len diverged: %d vs %d", plain.Len(), forked.Len())
	}
	if !forked.Incoherent(0x000) || !forked.Incoherent(0x100) || forked.Incoherent(0x080) {
		t.Fatal("fork Scan produced wrong incoherent set")
	}
}

func TestCacheClone(t *testing.T) {
	c := NewCache(4 * 128)
	c.Install(0x000, CacheExclusive, 7)
	c.Install(0x080, CacheShared, 8)
	f := c.Clone()
	f.Lookup(0x000).Token = 9
	f.Invalidate(0x080)
	if c.Lookup(0x000).Token != 7 {
		t.Fatal("clone line mutation leaked into source")
	}
	if c.Lookup(0x080) == nil {
		t.Fatal("clone invalidate leaked into source")
	}
	// FIFO order survives the clone: a full fill evicts in source order.
	addrs, _ := f.Flush()
	if len(addrs) != 1 || addrs[0] != 0x000 {
		t.Fatalf("clone flush order wrong: %v", addrs)
	}
}

// forkFixture is one entry in every directory state, with live and dead
// owners and sharers for ScanLiveness's node 5 failure.
var forkFixture = map[Addr]func(e *DirEntry){
	0x000: func(e *DirEntry) { e.State, e.Owner = DirExclusive, 2 },
	0x080: func(e *DirEntry) { e.State, e.Owner = DirExclusive, 5 },
	0x100: func(e *DirEntry) { e.State, e.Owner, e.PendingReq, e.PendingSeq = DirPendingRecall, 3, 1, 7 },
	0x180: func(e *DirEntry) { e.State, e.Owner, e.PendingReq = DirPendingRecall, 5, 2 },
	0x200: func(e *DirEntry) { e.State = DirShared; e.Sharers.Add(1); e.Sharers.Add(5) },
	0x280: func(e *DirEntry) { e.State = DirShared; e.Sharers.Add(5) },
	0x300: func(e *DirEntry) { e.State = DirShared; e.Sharers.Add(0); e.Sharers.Add(6) },
	0x380: func(e *DirEntry) { e.State, e.PendingReq, e.AcksLeft = DirPendingInval, 4, 2 },
	0x400: func(e *DirEntry) { e.State = DirIncoherent },
	0x480: func(e *DirEntry) { e.State, e.Owner = DirExclusive, 7 },
}

func fixtureDirectory() *Directory {
	d := NewDirectory(8)
	for a, set := range forkFixture {
		set(d.Get(a))
	}
	return d
}

// deepCopy copies a frozen map, entries and sharer lists included.
func deepCopy(m map[Addr]*DirEntry) map[Addr]*DirEntry {
	out := make(map[Addr]*DirEntry, len(m))
	for a, e := range m {
		c := new(DirEntry)
		copyEntry(c, e)
		out[a] = c
	}
	return out
}

// view renders a directory's live contents, sharers by member, for
// comparing two directories.
func view(d *Directory) map[Addr]string {
	out := map[Addr]string{}
	d.ForEach(func(a Addr, e *DirEntry) {
		out[a] = fmt.Sprintf("%v excl=%v owner=%d sharers=%v req=%d acks=%d seq=%d",
			e.State, e.PendingExcl, e.Owner, members(&e.Sharers), e.PendingReq, e.AcksLeft, e.PendingSeq)
	})
	return out
}

// Every read-only or sweeping access on a fork leaves the shared frozen
// base exactly as Freeze sealed it, and the sweeps leave the fork in the
// state a never-frozen directory reaches.
func TestForkAccessesLeaveFrozenBaseUntouched(t *testing.T) {
	up := func(n int) bool { return n != 5 }
	for _, tc := range []struct {
		name  string
		sweep func(d *Directory) []Addr
	}{
		{"Scan", (*Directory).Scan},
		{"ScanLiveness", func(d *Directory) []Addr { return d.ScanLiveness(up) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frozen := fixtureDirectory().Freeze()
			want := deepCopy(frozen)
			f := ForkDirectory(8, frozen)
			plain := fixtureDirectory()
			for a := range forkFixture {
				f.Peek(a)
				f.Incoherent(a)
			}
			f.Drop(0x480)
			plain.Drop(0x480)

			lostF, lostP := tc.sweep(f), tc.sweep(plain)
			if !reflect.DeepEqual(frozen, want) {
				t.Fatalf("%s on a fork mutated the frozen base", tc.name)
			}
			slices.Sort(lostF)
			slices.Sort(lostP)
			if !slices.Equal(lostF, lostP) {
				t.Fatalf("fork lost %v, never-frozen lost %v", lostF, lostP)
			}
			if got, exp := view(f), view(plain); !reflect.DeepEqual(got, exp) {
				t.Fatalf("fork after %s:\n%v\nnever-frozen:\n%v", tc.name, got, exp)
			}
			if got := f.Len(); got != plain.Len() {
				t.Fatalf("fork Len = %d, never-frozen Len = %d", got, plain.Len())
			}
		})
	}
}

// A line dropped in the fork over a frozen exclusive entry is invalid; a
// sweep must not read the base entry underneath and mark it lost.
func TestForkDropOverFrozenExclusiveStaysInvalid(t *testing.T) {
	frozen := fixtureDirectory().Freeze()
	for _, sweep := range []func(d *Directory) []Addr{
		(*Directory).Scan,
		func(d *Directory) []Addr { return d.ScanLiveness(func(int) bool { return false }) },
	} {
		f := ForkDirectory(8, frozen)
		f.Drop(0x000)
		if slices.Contains(sweep(f), 0x000) {
			t.Fatal("dropped line reported lost by the sweep")
		}
		if e := f.Peek(0x000); e != nil {
			t.Fatalf("dropped line came back as %v", e.State)
		}
		if frozen[0x000].State != DirExclusive {
			t.Fatal("Drop reached the frozen base")
		}
	}
}

// Peek reads a frozen line in place: no allocation, no copy-up.
func TestForkPeekAllocatesNothing(t *testing.T) {
	f := ForkDirectory(8, fixtureDirectory().Freeze())
	var e *DirEntry
	if allocs := testing.AllocsPerRun(100, func() { e = f.Peek(0x200) }); allocs != 0 {
		t.Fatalf("Peek of a frozen line allocated %.0f times", allocs)
	}
	if e == nil || e.State != DirShared {
		t.Fatalf("Peek returned %+v", e)
	}
	if len(f.entries) != 0 {
		t.Fatalf("Peek copied %d entries up", len(f.entries))
	}
}

// Freezing a fork merges its overlay (copied-up entries and tombstones)
// into a new base without touching the base it was forked from.
func TestDirectoryRefreezeMergesOverlay(t *testing.T) {
	base1 := fixtureDirectory().Freeze()
	want1 := deepCopy(base1)
	f := ForkDirectory(8, base1)
	f.Drop(0x000)
	f.Get(0x200).Sharers.Add(3)
	f.Get(0x500).State = DirShared
	f.Get(0x500).Sharers.Add(4)
	wantView := view(f)
	base2 := f.Freeze()
	if !reflect.DeepEqual(base1, want1) {
		t.Fatal("refreeze mutated the base the fork was taken from")
	}
	if got := view(ForkDirectory(8, base2)); !reflect.DeepEqual(got, wantView) {
		t.Fatalf("refrozen base:\n%v\nwant:\n%v", got, wantView)
	}
	if _, ok := base2[0x000]; ok {
		t.Fatal("a dropped line survived the refreeze")
	}
	if got := view(f); !reflect.DeepEqual(got, wantView) {
		t.Fatal("refreeze changed the fork's own view")
	}
}
