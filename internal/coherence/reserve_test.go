package coherence

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"flashfc/internal/timing"
)

// cacheRun drives a cache through a seeded sequence of installs (half of
// them evicting once it is full) and invalidations, and returns every
// victim, the resident lines in ForEach order, and what Flush writes back.
type cacheRun struct {
	victims  []Addr
	resident []Addr
	flushed  []Addr
	tokens   []uint64
}

func runCache(c *Cache, seed int64) cacheRun {
	rng := rand.New(rand.NewSource(seed))
	var out cacheRun
	for i := 0; i < 400; i++ {
		a := Addr(rng.Intn(48)) * timing.LineSize
		if rng.Intn(5) == 0 {
			c.Invalidate(a)
			continue
		}
		if v, l := c.Install(a, CacheState(rng.Intn(2)), rng.Uint64()); l != nil {
			out.victims = append(out.victims, v)
		}
	}
	c.ForEach(func(a Addr, _ *CacheLine) { out.resident = append(out.resident, a) })
	addrs, lines := c.Flush()
	out.flushed = addrs
	for _, l := range lines {
		out.tokens = append(out.tokens, l.Token)
	}
	return out
}

// A cache sized ahead by Reserve evicts the same victims, visits the same
// lines in the same order and flushes the same writebacks as one that grew
// from empty, whether the hint is short of, equal to or past its capacity.
func TestReservedCacheBehavesAsUnreserved(t *testing.T) {
	for _, n := range []int{1, 8, 16, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			plain := NewCache(16 * timing.LineSize)
			reserved := NewCache(16 * timing.LineSize)
			reserved.Reserve(n)
			if c := cap(reserved.fifo); c != min(n, 16) {
				t.Fatalf("Reserve(%d) on a 16-line cache: FIFO capacity %d", n, c)
			}
			want, got := runCache(plain, seed), runCache(reserved, seed)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("Reserve(%d), seed %d: reserved cache differs\nplain    %+v\nreserved %+v", n, seed, want, got)
			}
		}
	}
}

// Reserve is a hint for an empty cache only: on one that holds lines, on a
// clone of one, or on one whose FIFO still has entries, it keeps the index
// and FIFO it finds.
func TestCacheReserveLeavesNonEmptyAlone(t *testing.T) {
	c := NewCache(16 * timing.LineSize)
	c.Install(0x80, CacheExclusive, 1)
	c.Install(0x100, CacheShared, 2)
	clone := c.Clone()
	drained := NewCache(16 * timing.LineSize)
	drained.Install(0x80, CacheShared, 3)
	drained.Invalidate(0x80)
	for name, c := range map[string]*Cache{"non-empty": c, "clone": clone, "invalidated": drained} {
		index, fifo := reflect.ValueOf(c.lines).UnsafePointer(), unsafe.SliceData(c.fifo)
		c.Reserve(64)
		if reflect.ValueOf(c.lines).UnsafePointer() != index || unsafe.SliceData(c.fifo) != fifo {
			t.Errorf("%s: Reserve replaced the index or FIFO", name)
		}
	}
}

// A flushed cache lets its index go until the next Install needs one.
func TestFlushedCacheHoldsNoIndex(t *testing.T) {
	c := NewCache(16 * timing.LineSize)
	c.Install(0x80, CacheExclusive, 1)
	c.FlushEach(nil)
	if c.lines != nil || c.Len() != 0 || c.Lookup(0x80) != nil {
		t.Fatalf("flushed cache: index %v, %d lines", c.lines, c.Len())
	}
	c.Install(0x100, CacheShared, 2)
	if l := c.Lookup(0x100); l == nil || l.Token != 2 {
		t.Fatalf("install after flush: %+v", l)
	}
}

// dirRun drives a directory through seeded Get, Drop and Release calls on
// a quarter of a home's lines at most, then reports its live entries in
// address order, what Freeze sealed, and what Scan marked.
type dirRun struct {
	live   []refEntry
	frozen []refEntry
	lost   []Addr
}

func runDirectory(d *Directory, base Addr, pool int, seed int64) dirRun {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 300; i++ {
		a := base + Addr(rng.Intn(pool))*timing.LineSize
		switch rng.Intn(4) {
		case 0:
			d.Drop(a)
		case 1:
			d.Release(a)
		default:
			scribble(rng, d.Get(a), 8)
		}
	}
	sorted := func(m map[Addr]*DirEntry) []refEntry {
		addrs := make([]Addr, 0, len(m))
		for a := range m {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		var out []refEntry
		for _, a := range addrs {
			out = append(out, refOf(m[a]))
		}
		return out
	}
	live := map[Addr]*DirEntry{}
	d.ForEach(func(a Addr, e *DirEntry) { live[a] = e })
	out := dirRun{live: sorted(live), frozen: sorted(d.Freeze())}
	out.lost = d.Scan()
	slices.Sort(out.lost)
	return out
}

// A directory sized ahead by Reserve holds the same entries, seals the same
// base and marks the same lines as one that grew from empty.
func TestReservedDirectoryBehavesAsUnreserved(t *testing.T) {
	const lines = 256
	base := Addr(2 * lines * timing.LineSize)
	for _, n := range []int{1, 16, lines / 4} {
		for seed := int64(1); seed <= 4; seed++ {
			plain, reserved := NewDirectory(8), NewDirectory(8)
			plain.SetHome(base, lines)
			reserved.SetHome(base, lines)
			reserved.Reserve(n)
			if reserved.entries == nil {
				t.Fatalf("Reserve(%d) of %d lines sized no overlay", n, lines)
			}
			want, got := runDirectory(plain, base, lines/4, seed), runDirectory(reserved, base, lines/4, seed)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("Reserve(%d), seed %d: reserved directory differs\nplain    %+v\nreserved %+v", n, seed, want, got)
			}
		}
	}
}

// Reserve is a hint for an empty, unforked directory whose overlay would
// stay a map: on one that holds entries, a fork of a frozen base, or a
// home where n lines would make the overlay line-indexed, it changes
// nothing.
func TestDirectoryReserveLeavesOthersAlone(t *testing.T) {
	const lines = 256
	base := Addr(2 * lines * timing.LineSize)
	held := NewDirectory(8)
	held.SetHome(base, lines)
	held.Get(base).State = DirShared
	frozenSrc := NewDirectory(8)
	frozenSrc.Get(base).State = DirShared
	fork := ForkDirectory(8, frozenSrc.Freeze())
	fork.SetHome(base, lines)
	big := NewDirectory(8)
	big.SetHome(base, lines)
	for name, tc := range map[string]struct {
		d *Directory
		n int
	}{
		"non-empty":        {held, 16},
		"fork":             {fork, 16},
		"would-be-indexed": {big, lines/4 + 1},
	} {
		overlay := reflect.ValueOf(tc.d.entries).UnsafePointer()
		tc.d.Reserve(tc.n)
		if reflect.ValueOf(tc.d.entries).UnsafePointer() != overlay || tc.d.dense != nil {
			t.Errorf("%s: Reserve(%d) changed the overlay", name, tc.n)
		}
	}
}
