package coherence

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"flashfc/internal/timing"
)

// refEntry is the reference model's copy of one line's directory state.
type refEntry struct {
	State       DirState
	PendingExcl bool
	Owner       int
	Sharers     []int // members, ascending
	PendingReq  int32
	AcksLeft    uint16
	PendingSeq  uint64
}

func refOf(e *DirEntry) refEntry {
	return refEntry{e.State, e.PendingExcl, e.Owner, members(&e.Sharers), e.PendingReq, e.AcksLeft, e.PendingSeq}
}

func (r refEntry) String() string {
	return fmt.Sprintf("%v excl=%v owner=%d sharers=%v req=%d acks=%d seq=%d",
		r.State, r.PendingExcl, r.Owner, r.Sharers, r.PendingReq, r.AcksLeft, r.PendingSeq)
}

func (r refEntry) equal(o refEntry) bool {
	return r.State == o.State && r.PendingExcl == o.PendingExcl && r.Owner == o.Owner &&
		slices.Equal(r.Sharers, o.Sharers) && r.PendingReq == o.PendingReq &&
		r.AcksLeft == o.AcksLeft && r.PendingSeq == o.PendingSeq
}

// refScan and refScanLiveness are the P4 sweeps' per-entry rules, written
// against the reference model; both drop the lines they leave DirInvalid.
func refScan(ref map[Addr]refEntry) []Addr {
	var lost []Addr
	for a, e := range ref {
		switch e.State {
		case DirExclusive, DirPendingRecall:
			e.State = DirIncoherent
			lost = append(lost, a)
		case DirShared, DirPendingInval:
			e.State = DirInvalid
			e.Sharers = nil
		}
		e.AcksLeft = 0
		ref[a] = e
	}
	maps.DeleteFunc(ref, func(_ Addr, e refEntry) bool { return e.State == DirInvalid })
	return lost
}

func refScanLiveness(ref map[Addr]refEntry, nodes int, up func(int) bool) []Addr {
	var lost []Addr
	for a, e := range ref {
		switch e.State {
		case DirExclusive:
			if !up(e.Owner) {
				e.State = DirIncoherent
				lost = append(lost, a)
			}
		case DirPendingRecall:
			if up(e.Owner) {
				e.State = DirExclusive
			} else {
				e.State = DirIncoherent
				lost = append(lost, a)
			}
		case DirShared:
			e.Sharers = slices.DeleteFunc(slices.Clone(e.Sharers), func(id int) bool { return !up(id) })
			if len(e.Sharers) == 0 {
				e.State = DirInvalid
			}
		case DirPendingInval:
			e.State = DirShared
			e.Sharers = nil
			for id := 0; id < nodes; id++ {
				if up(id) {
					e.Sharers = append(e.Sharers, id)
				}
			}
		}
		e.AcksLeft = 0
		ref[a] = e
	}
	maps.DeleteFunc(ref, func(_ Addr, e refEntry) bool { return e.State == DirInvalid })
	return lost
}

// scribble gives e random state, with up to five sharers so that some
// lists spill.
func scribble(rng *rand.Rand, e *DirEntry, nodes int) {
	e.State = DirState(rng.Intn(int(DirIncoherent) + 1))
	e.PendingExcl = rng.Intn(2) == 0
	e.Owner = rng.Intn(nodes)
	e.Sharers.Clear()
	for k := rng.Intn(6); k > 0; k-- {
		e.Sharers.Add(rng.Intn(nodes))
	}
	e.PendingReq = int32(rng.Intn(nodes))
	e.AcksLeft = uint16(rng.Intn(nodes))
	e.PendingSeq = rng.Uint64()
}

// Random sequences of every Directory operation, on homes that stay
// sparse and on homes whose overlay crosses into the line-indexed form,
// agree with a plain map of entry values on every line after every step,
// and never change a base Freeze returned. Forks and refreezes put
// tombstones over frozen bases in both overlay forms.
func TestDirectoryMatchesReferenceModel(t *testing.T) {
	const lines = 64
	for _, nodes := range []int{8, 128, 1024} {
		for _, tc := range []struct {
			name  string
			pool  int  // distinct lines the sequence touches
			dense bool // whether the overlay must become line-indexed
		}{
			{"sparse", lines / 4, false},
			{"dense", lines, true},
		} {
			t.Run(fmt.Sprintf("%d-nodes/%s", nodes, tc.name), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					runModel(t, rand.New(rand.NewSource(seed)), nodes, lines, tc.pool, tc.dense)
				}
			})
		}
	}
}

func runModel(t *testing.T, rng *rand.Rand, nodes, lines, pool int, wantDense bool) {
	t.Helper()
	base := Addr(3 * lines * timing.LineSize) // home node 3
	addr := func() Addr { return base + Addr(rng.Intn(pool))*timing.LineSize + Addr(rng.Intn(timing.LineSize)) }
	d := NewDirectory(nodes)
	d.SetHome(base, lines)
	ref := map[Addr]refEntry{}
	type sealed struct {
		base map[Addr]*DirEntry
		want map[Addr]refEntry
	}
	var bases []sealed
	snapshot := func(m map[Addr]*DirEntry) map[Addr]refEntry {
		out := map[Addr]refEntry{}
		for a, e := range m {
			out[a] = refOf(e)
		}
		return out
	}
	var log []string
	promoted := false
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %v:\n"+format, append([]any{log}, args...)...)
	}
	for step := 0; step < 600; step++ {
		a := addr()
		switch op := rng.Intn(100); {
		case op < 40:
			log = append(log, fmt.Sprintf("Get %v", a))
			e := d.Get(a)
			want, ok := ref[a.Line()]
			if !ok {
				want = refOf(&DirEntry{})
			}
			if got := refOf(e); !got.equal(want) {
				fail("Get(%v) = %v, want %v", a, got, want)
			}
			scribble(rng, e, nodes)
			ref[a.Line()] = refOf(e)
		case op < 52:
			log = append(log, fmt.Sprintf("Lookup %v", a))
			e := d.Lookup(a)
			want, ok := ref[a.Line()]
			if (e != nil) != ok || (ok && !refOf(e).equal(want)) {
				fail("Lookup(%v) = %v, want %v (present %v)", a, e, want, ok)
			}
			if e != nil && rng.Intn(2) == 0 {
				scribble(rng, e, nodes)
				ref[a.Line()] = refOf(e)
			}
		case op < 68:
			log = append(log, fmt.Sprintf("Drop %v", a))
			d.Drop(a)
			delete(ref, a.Line())
		case op < 80:
			log = append(log, fmt.Sprintf("Release %v", a))
			d.Release(a)
			if ref[a.Line()].State == DirInvalid {
				delete(ref, a.Line())
			}
		case op < 90:
			log = append(log, fmt.Sprintf("Scrub %v", a))
			want := false
			if e, ok := ref[a.Line()]; ok && e.State == DirIncoherent {
				want = true
				delete(ref, a.Line())
			}
			if got := d.Scrub(a); got != want {
				fail("Scrub(%v) = %v, want %v", a, got, want)
			}
		case op < 93:
			log = append(log, "Scan")
			got, want := d.Scan(), refScan(ref)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				fail("Scan lost %v, want %v", got, want)
			}
		case op < 96:
			dead := rng.Intn(nodes)
			log = append(log, fmt.Sprintf("ScanLiveness dead=%d", dead))
			up := func(n int) bool { return n != dead && n%7 != 3 }
			got, want := d.ScanLiveness(up), refScanLiveness(ref, nodes, up)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				fail("ScanLiveness lost %v, want %v", got, want)
			}
		case op < 98:
			log = append(log, "Freeze")
			m := d.Freeze()
			if got := snapshot(m); !maps.EqualFunc(got, ref, refEntry.equal) {
				fail("Freeze returned %v, want %v", got, ref)
			}
			bases = append(bases, sealed{m, snapshot(m)})
		default:
			log = append(log, "ForkDirectory")
			m := d.Freeze()
			bases = append(bases, sealed{m, snapshot(m)})
			d = ForkDirectory(nodes, m)
			d.SetHome(base, lines)
		}
		if len(log) > 8 {
			log = log[1:]
		}
		for i := 0; i < pool; i++ {
			a := base + Addr(i)*timing.LineSize
			e := d.Peek(a)
			want, ok := ref[a]
			if (e != nil) != ok || (ok && !refOf(e).equal(want)) {
				fail("Peek(%v) = %v, want %v (present %v)", a, e, want, ok)
			}
		}
		seen := map[Addr]refEntry{}
		d.ForEach(func(a Addr, e *DirEntry) {
			if _, dup := seen[a]; dup {
				fail("ForEach visited %v twice", a)
			}
			seen[a] = refOf(e)
		})
		if !maps.EqualFunc(seen, ref, refEntry.equal) {
			fail("ForEach saw %v, want %v", seen, ref)
		}
		for _, b := range bases {
			if got := snapshot(b.base); !maps.EqualFunc(got, b.want, refEntry.equal) {
				fail("a frozen base changed: %v, sealed as %v", got, b.want)
			}
		}
		promoted = promoted || d.dense != nil
	}
	if promoted != wantDense {
		t.Fatalf("overlay became line-indexed: %v, want %v", promoted, wantDense)
	}
}

// A directory entry packs its pending-transaction fields into one word
// and holds its sharers inline: 40 bytes whatever the machine size.
func TestDirEntryIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(DirEntry{}); got != 40 {
		t.Fatalf("DirEntry is %d bytes, want 40", got)
	}
}

// New lines are carved eight at a time, and a line with one sharer needs
// no storage beyond its entry: one allocation per eight new lines, at
// every machine size.
func TestNewLinesCarveSharersWithEntries(t *testing.T) {
	for _, nodes := range []int{128, 1024} {
		d := NewDirectory(nodes)
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 64; i++ {
				d.Get(Addr(i) * timing.LineSize).Sharers.Add(nodes - 1)
			}
			for i := 0; i < 64; i++ {
				d.Drop(Addr(i) * timing.LineSize)
			}
		})
		if allocs > 64/dirChunk {
			t.Errorf("%d nodes: 64 new lines cost %.1f allocations, want at most %d", nodes, allocs, 64/dirChunk)
		}
	}
}

// AcksLeft counts sharers in 16 bits, so a directory refuses a machine
// with more nodes than that.
func TestNewDirectoryRejectsTooManyNodes(t *testing.T) {
	NewDirectory(maxDirNodes)
	defer func() {
		if recover() == nil {
			t.Fatal("NewDirectory(65536) did not panic")
		}
	}()
	NewDirectory(65536)
}
