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
		if v, _, ok := c.Install(a, CacheState(rng.Intn(2)), rng.Uint64()); ok {
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

// dirRun is what a directory holds after touchDirectory: its live entries
// in address order, what Freeze sealed, and what Scan marked.
type dirRun struct {
	live   []refEntry
	frozen []refEntry
	lost   []Addr
}

// touchDirectory drives a directory through ops seeded Get, Drop and
// Release calls on the first pool lines of the home at base.
func touchDirectory(d *Directory, base Addr, pool, ops int, rng *rand.Rand) {
	for i := 0; i < ops; i++ {
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
}

// settleDirectory reports a directory's live entries, then freezes and
// scans it.
func settleDirectory(d *Directory) dirRun {
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
// base and marks the same lines as one that grew from empty: a sparse
// reservation on an empty home, and reservations past a quarter of the
// home's lines on an empty home, on one already holding sparse entries, on
// forks of a frozen base with and without entries of their own, and one
// far larger than what is then touched. A reservation past a quarter
// makes the overlay line-indexed at once and leaves room for its entries
// in one block; a smaller one on an empty, unforked home sizes the map.
func TestReservedDirectoryBehavesAsUnreserved(t *testing.T) {
	const lines = 256
	base := Addr(2 * lines * timing.LineSize)
	src := NewDirectory(8)
	src.SetHome(base, lines)
	touchDirectory(src, base, lines, 40, rand.New(rand.NewSource(99)))
	frozen := src.Freeze()
	for _, tc := range []struct {
		name         string
		fork         bool
		prefix       int // operations before the reservation
		n, pool, ops int
		promoted     bool
	}{
		{name: "empty, one line", n: 1, pool: lines / 4, ops: 300},
		{name: "empty, sparse", n: 16, pool: lines / 4, ops: 300},
		{name: "empty, a quarter", n: lines / 4, pool: lines / 4, ops: 300},
		{name: "empty, past a quarter", n: lines/4 + 1, pool: lines / 2, ops: 300, promoted: true},
		{name: "empty, whole home", n: lines, pool: lines, ops: 600, promoted: true},
		{name: "sparse entries, past a quarter", prefix: 40, n: lines / 4, pool: lines / 2, ops: 300, promoted: true},
		{name: "fork, past a quarter", fork: true, n: lines / 2, pool: lines, ops: 300, promoted: true},
		{name: "fork with entries, past a quarter", fork: true, prefix: 30, n: lines / 4, pool: lines, ops: 300, promoted: true},
		{name: "larger than touched", n: lines, pool: lines / 8, ops: 100, promoted: true},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			home := func() *Directory {
				d := NewDirectory(8)
				if tc.fork {
					d = ForkDirectory(8, frozen)
				}
				d.SetHome(base, lines)
				return d
			}
			plain, reserved := home(), home()
			plainRng, reservedRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			touchDirectory(plain, base, tc.pool, tc.prefix, plainRng)
			touchDirectory(reserved, base, tc.pool, tc.prefix, reservedRng)
			if reserved.dense != nil {
				t.Fatalf("%s: the overlay was line-indexed before the reservation", tc.name)
			}
			reserved.Reserve(tc.n)
			switch {
			case tc.promoted && (reserved.dense == nil || reserved.entries != nil):
				t.Fatalf("%s: Reserve(%d) of %d lines left the overlay a map", tc.name, tc.n, lines)
			case tc.promoted && cap(reserved.chunk)-len(reserved.chunk) < tc.n:
				t.Fatalf("%s: Reserve(%d) left room for %d entries", tc.name, tc.n, cap(reserved.chunk)-len(reserved.chunk))
			case !tc.promoted && (reserved.entries == nil || reserved.dense != nil):
				t.Fatalf("%s: Reserve(%d) of %d lines sized no map overlay", tc.name, tc.n, lines)
			}
			touchDirectory(plain, base, tc.pool, tc.ops, plainRng)
			touchDirectory(reserved, base, tc.pool, tc.ops, reservedRng)
			want, got := settleDirectory(plain), settleDirectory(reserved)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s, seed %d: reserved directory differs\nplain    %+v\nreserved %+v", tc.name, seed, want, got)
			}
		}
	}
}

// Reserve leaves alone the overlay of a directory whose overlay would stay
// a map and that holds entries or a frozen base. Where the overlay plus
// the reservation would pass a quarter of the home's lines, it makes the
// overlay line-indexed at once, keeping what the overlay held, and carves
// the reserved entries as one block that the next Gets use; a directory
// never told its lines only sizes the map.
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
	for name, tc := range map[string]struct {
		d *Directory
		n int
	}{
		"non-empty": {held, 16},
		"fork":      {fork, 16},
	} {
		overlay := reflect.ValueOf(tc.d.entries).UnsafePointer()
		tc.d.Reserve(tc.n)
		if reflect.ValueOf(tc.d.entries).UnsafePointer() != overlay || tc.d.dense != nil {
			t.Errorf("%s: Reserve(%d) changed the overlay", name, tc.n)
		}
	}

	big := NewDirectory(8)
	big.SetHome(base, lines)
	big.Get(base + timing.LineSize).State = DirExclusive
	const n = lines / 4
	big.Reserve(n)
	if big.dense == nil || big.entries != nil {
		t.Fatalf("would-be-indexed: Reserve(%d) of %d lines with one entry left the overlay a map", n, lines)
	}
	if e := big.Peek(base + timing.LineSize); e == nil || e.State != DirExclusive {
		t.Fatalf("would-be-indexed: the promotion lost the entry it held: %+v", e)
	}
	block := unsafe.SliceData(big.chunk)
	for i := 2; i < 2+n; i++ {
		big.Get(base + Addr(i)*timing.LineSize)
	}
	if unsafe.SliceData(big.chunk) != block || len(big.chunk) != n {
		t.Fatalf("would-be-indexed: %d Gets did not fill the reserved block (len %d)", n, len(big.chunk))
	}

	unhomed := NewDirectory(8)
	unhomed.Reserve(4 * lines)
	if unhomed.entries == nil || unhomed.dense != nil || unhomed.chunk != nil {
		t.Fatalf("a directory without SetHome: Reserve made dense %v, chunk %d", unhomed.dense != nil, cap(unhomed.chunk))
	}
}
