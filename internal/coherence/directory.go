package coherence

import (
	"fmt"
	"maps"

	"flashfc/internal/timing"
)

// DirState is the home-side coherence state of a line.
type DirState uint8

const (
	// DirInvalid: no cached copies; memory is valid.
	DirInvalid DirState = iota
	// DirShared: read-only copies at Sharers; memory is valid.
	DirShared
	// DirExclusive: Owner holds the only valid copy; memory may be stale.
	DirExclusive
	// DirPendingRecall: the line is locked while the home waits for the
	// owner's writeback; requests are NAKed (§3.2).
	DirPendingRecall
	// DirPendingInval: the line is locked while the home collects
	// invalidate acknowledgments; requests are NAKed (§3.2).
	DirPendingInval
	// DirIncoherent: the only valid copy was lost in a failure; accesses
	// are terminated with a bus error until the OS scrubs the line (§3.2).
	DirIncoherent
)

func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "invalid"
	case DirShared:
		return "shared"
	case DirExclusive:
		return "exclusive"
	case DirPendingRecall:
		return "pending-recall"
	case DirPendingInval:
		return "pending-inval"
	case DirIncoherent:
		return "incoherent"
	default:
		return "?"
	}
}

// Locked reports whether the line is in a transient state.
func (s DirState) Locked() bool { return s == DirPendingRecall || s == DirPendingInval }

// DirEntry is the directory state of one line at its home. Its sharer
// list holds up to three ids inline and spills to a heap bitmap only past
// that, so an entry is 40 bytes on every machine size; copying an entry by
// value aliases a spilled bitmap (copyEntry does not). The
// pending-transaction fields share one word with State.
type DirEntry struct {
	State       DirState
	PendingExcl bool      // the pending request is a GETX (valid while State.Locked())
	AcksLeft    uint16    // outstanding invalidate acks (DirPendingInval); at most the sharer count
	PendingReq  int32     // the requester the lock is held for (valid while State.Locked())
	Owner       int       // valid in DirExclusive and DirPendingRecall
	Sharers     SharerSet // valid in DirShared and DirPendingInval
	PendingSeq  uint64    // requester's sequence number, echoed in the reply (valid while State.Locked())
}

// maxDirNodes is the largest machine a Directory serves: AcksLeft counts
// sharers in 16 bits.
const maxDirNodes = 1<<16 - 1

// Directory is the home-side protocol state for one node's memory lines.
// Entries are sparse: absent means DirInvalid.
//
// A directory can be frozen for forking: Freeze seals the current entries
// as an immutable base map shared by any number of forked machines. A fork
// pays only for the lines its run changes. Get and Lookup copy an entry up
// into a private overlay on first touch; Peek reads the base in place and
// Drop shadows a base entry with a tombstone without copying it. The
// P4 sweeps read the base in place too: ScanLiveness copies up only the
// entries whose state it changes and tombstones the ones it resets; Scan,
// after which only incoherent lines survive, copies those up and lets go
// of the base. The warm image a fork never touched is never duplicated.
//
// The overlay starts as a sparse map, made on the first write or sized
// ahead by Reserve. Once it holds more than a quarter of the home's lines,
// a map that size already costs about a pointer per line, and a run that
// touches that many (the §5.2 verify sweep touches every one) is headed
// for all of them: the overlay becomes a slice indexed by local line
// number and stays one. A Reserve that would take it past the quarter
// switches it at once, rather than growing a map on the way there. Only a
// directory told its lines by SetHome can switch; the frozen base is
// always a map.
//
// Entries are carved from small per-directory chunks rather than allocated
// one by one (an entry per swept line was a third of the verify sweep's
// bytes), or from one block of the reserved size when a Reserve switches
// the overlay. A dropped entry's slot is simply abandoned: its chunk is
// collected once every entry in it is gone. The chunk is kept small
// because a campaign holds every finished machine of a batch, and each of
// their directories carries up to a chunk of slack; a block is only ever
// carved for lines about to be touched.
type Directory struct {
	nodes   int
	entries map[Addr]*DirEntry // sparse overlay; nil value = deleted base entry
	dense   []*DirEntry        // line-indexed overlay once promoted; nil = absent, tombstone = deleted
	frozen  map[Addr]*DirEntry // shared immutable base; nil when never frozen
	base    Addr               // first line homed here (see SetHome)
	lines   int                // lines homed here; 0 keeps the overlay a map
	chunk   []DirEntry         // entries are carved from its spare capacity
}

// dirChunk is the number of entries carved per allocation.
const dirChunk = 8

// tombstone marks a deleted base entry in the line-indexed overlay.
var tombstone = new(DirEntry)

// newEntry carves a zeroed DirInvalid entry with an empty sharer list.
func (d *Directory) newEntry() *DirEntry {
	if len(d.chunk) == cap(d.chunk) {
		d.chunk = make([]DirEntry, 0, dirChunk)
	}
	d.chunk = d.chunk[:len(d.chunk)+1]
	return &d.chunk[len(d.chunk)-1]
}

// NewDirectory returns an empty directory for a machine of n nodes. It
// panics if n exceeds 65 535, the most sharers AcksLeft can count.
func NewDirectory(n int) *Directory {
	if n > maxDirNodes {
		panic(fmt.Sprintf("coherence: a directory serves at most %d nodes, not %d", maxDirNodes, n))
	}
	return &Directory{nodes: n}
}

// Reserve tells the directory that up to n more of its lines are about to
// gain entries, so it can size its storage once instead of a step at a
// time. It is only a hint, and changes no entry:
//
//   - where the overlay plus n lines would pass a quarter of the home's
//     lines, the overlay becomes line-indexed at once, as it would on
//     the way there, and the n entries are carved as one block;
//   - otherwise an empty, unforked directory sizes its sparse overlay for
//     n lines (a fill that knows how many of this home's lines it will
//     touch); one that holds entries or a frozen base is left alone.
//
// A directory never told its lines by SetHome only ever sizes the map.
func (d *Directory) Reserve(n int) {
	switch {
	case n <= 0:
	case d.lines > 0 && (d.dense != nil || 4*(len(d.entries)+n) > d.lines):
		if d.dense == nil {
			d.promote()
		}
		if cap(d.chunk)-len(d.chunk) < n {
			d.chunk = make([]DirEntry, 0, n)
		}
	case len(d.entries) == 0 && d.frozen == nil:
		d.entries = make(map[Addr]*DirEntry, n)
	}
}

// SetHome tells the directory that it holds the lines lines starting at
// base, which lets its overlay become line-indexed once it is dense. A
// directory never told keeps a map overlay.
func (d *Directory) SetHome(base Addr, lines int) {
	d.base, d.lines = base.Line(), lines
}

// The overlay helpers below hide which form the overlay has. A line the
// overlay holds has an entry, or nil for a tombstone over the base.

// over returns line a's overlay entry (nil for a tombstone) and whether
// the overlay holds the line.
func (d *Directory) over(a Addr) (*DirEntry, bool) {
	if d.dense == nil {
		e, ok := d.entries[a]
		return e, ok
	}
	switch e := d.dense[d.index(a)]; e {
	case nil:
		return nil, false
	case tombstone:
		return nil, true
	default:
		return e, true
	}
}

// setOver stores e, or a tombstone when e is nil, as line a's overlay
// entry, promoting the overlay once it holds a quarter of the home's lines.
func (d *Directory) setOver(a Addr, e *DirEntry) {
	if d.dense != nil {
		if e == nil {
			e = tombstone
		}
		d.dense[d.index(a)] = e
		return
	}
	if d.entries == nil {
		d.entries = make(map[Addr]*DirEntry)
	}
	d.entries[a] = e
	if d.lines > 0 && 4*len(d.entries) > d.lines {
		d.promote()
	}
}

// promote turns the sparse overlay into the line-indexed one, which it
// stays.
func (d *Directory) promote() {
	d.dense = make([]*DirEntry, d.lines)
	for a, e := range d.entries {
		d.setOver(a, e)
	}
	d.entries = nil
}

// unsetOver removes line a from the overlay.
func (d *Directory) unsetOver(a Addr) {
	if d.dense != nil {
		d.dense[d.index(a)] = nil
	} else {
		delete(d.entries, a)
	}
}

// rangeOver calls fn for every line the overlay holds (order unspecified).
// fn may set or unset the line it is given.
func (d *Directory) rangeOver(fn func(a Addr, e *DirEntry)) {
	if d.dense == nil {
		for a, e := range d.entries {
			fn(a, e)
		}
		return
	}
	for i, e := range d.dense {
		if e == tombstone {
			e = nil
		} else if e == nil {
			continue
		}
		fn(d.base+Addr(i)*timing.LineSize, e)
	}
}

// index returns line a's slot in the line-indexed overlay.
func (d *Directory) index(a Addr) int { return int((a - d.base) / timing.LineSize) }

// Freeze seals the directory's current contents as an immutable shared
// base and returns it. The directory itself continues copy-on-write on top
// of the same base, so freezing is invisible to protocol behavior; the
// returned map (entries included) must never be mutated. A refreeze
// merges the overlay into a new base that shares the old base's entries.
func (d *Directory) Freeze() map[Addr]*DirEntry {
	switch {
	case d.frozen == nil && d.dense == nil:
		d.frozen, d.entries = d.entries, nil // no base, so no tombstones
		return d.frozen
	case d.dense == nil && len(d.entries) == 0:
		return d.frozen
	}
	merged := make(map[Addr]*DirEntry, len(d.frozen)+len(d.entries))
	maps.Copy(merged, d.frozen)
	d.rangeOver(func(a Addr, e *DirEntry) {
		if e == nil {
			delete(merged, a)
		} else {
			merged[a] = e
		}
	})
	d.frozen = merged
	if d.dense != nil {
		clear(d.dense)
	} else {
		d.entries = nil
	}
	return d.frozen
}

// ForkDirectory returns a directory whose initial contents are the frozen
// base, shared copy-on-write with every other fork of the same snapshot.
func ForkDirectory(nodes int, frozen map[Addr]*DirEntry) *Directory {
	d := NewDirectory(nodes)
	d.frozen = frozen
	return d
}

// cloneEntry copies a base entry up into a privately mutable one.
func (d *Directory) cloneEntry(e *DirEntry) *DirEntry {
	c := d.newEntry()
	copyEntry(c, e)
	return c
}

// copyEntry overwrites dst with src, giving dst its own copy of a spilled
// sharer bitmap.
func copyEntry(dst, src *DirEntry) {
	*dst = *src
	dst.Sharers = src.Sharers.clone()
}

// sameEntry reports whether two entries hold the same state.
func sameEntry(a, b *DirEntry) bool {
	return a.State == b.State && a.PendingExcl == b.PendingExcl && a.Owner == b.Owner &&
		a.PendingReq == b.PendingReq && a.AcksLeft == b.AcksLeft && a.PendingSeq == b.PendingSeq &&
		a.Sharers.equal(&b.Sharers)
}

// Peek returns the entry for line a without copying it up, or nil if the
// line is DirInvalid. The entry may belong to the shared frozen base: the
// caller must not mutate it (use Lookup or Get for that).
func (d *Directory) Peek(a Addr) *DirEntry {
	a = a.Line()
	if e, ok := d.over(a); ok {
		return e // may be nil for a tombstone: the line is DirInvalid
	}
	return d.frozen[a]
}

// Drop returns line a to DirInvalid, whatever its state, without copying
// a base entry up first: a plain delete when no base entry shadows it, a
// tombstone otherwise.
func (d *Directory) Drop(a Addr) {
	a = a.Line()
	if _, ok := d.frozen[a]; ok {
		d.setOver(a, nil)
	} else {
		d.unsetOver(a)
	}
}

// Lookup returns the entry for line a, or nil if the line is DirInvalid.
// A base entry is copied up so the caller may mutate it.
func (d *Directory) Lookup(a Addr) *DirEntry {
	a = a.Line()
	if e, ok := d.over(a); ok {
		return e // may be nil for a tombstone: the line is DirInvalid
	}
	if fe, ok := d.frozen[a]; ok {
		e := d.cloneEntry(fe)
		d.setOver(a, e)
		return e
	}
	return nil
}

// Get returns the entry for line a, creating a DirInvalid entry if needed.
func (d *Directory) Get(a Addr) *DirEntry {
	a = a.Line()
	e, ok := d.over(a)
	if e != nil {
		return e
	}
	if !ok {
		if fe, fok := d.frozen[a]; fok {
			e = d.cloneEntry(fe)
			d.setOver(a, e)
			return e
		}
	}
	e = d.newEntry()
	d.setOver(a, e)
	return e
}

// Release removes a line's entry if it has returned to DirInvalid, keeping
// the directory sparse.
func (d *Directory) Release(a Addr) {
	if e := d.Peek(a); e != nil && e.State == DirInvalid {
		d.Drop(a)
	}
}

// Len returns the number of non-invalid entries, for tests.
func (d *Directory) Len() int {
	n := 0
	d.ForEach(func(Addr, *DirEntry) { n++ })
	return n
}

// ForEach visits every live entry (order unspecified) without copying the
// base up. It is a read-only walk: the visitor must not mutate entries,
// which may belong to the shared frozen base.
func (d *Directory) ForEach(fn func(a Addr, e *DirEntry)) {
	d.rangeOver(func(a Addr, e *DirEntry) {
		if e != nil {
			fn(a, e)
		}
	})
	for a, e := range d.frozen {
		if _, shadowed := d.over(a); !shadowed {
			fn(a, e)
		}
	}
}

// sweep applies fix, a P4 directory sweep's per-entry rule, to every live
// entry and drops the entries fix returns to DirInvalid. Overlay entries
// are fixed in place; a base entry is fixed in a scratch copy. Without
// detach, the copy is kept only if fix changed it, and a base entry that
// fix resets gets a tombstone. With detach, every surviving copy is kept
// and the directory then lets go of the base and its tombstones: the
// cheaper choice for a sweep that resets almost every entry, where a
// tombstone per reset line would outweigh the few survivors' copies.
func (d *Directory) sweep(fix func(a Addr, e *DirEntry), detach bool) {
	d.rangeOver(func(a Addr, e *DirEntry) {
		if e == nil {
			return
		}
		fix(a, e)
		if e.State == DirInvalid {
			d.Drop(a) // updates or deletes the line being visited
		}
	})
	var scratch *DirEntry
	for a, fe := range d.frozen {
		if _, shadowed := d.over(a); shadowed {
			continue
		}
		if scratch == nil {
			scratch = d.newEntry()
		}
		copyEntry(scratch, fe)
		fix(a, scratch)
		switch {
		case scratch.State == DirInvalid:
			if !detach {
				d.setOver(a, nil)
			}
		case detach || !sameEntry(scratch, fe):
			d.setOver(a, scratch)
			scratch = nil
		}
	}
	if detach && d.frozen != nil {
		d.rangeOver(func(a Addr, e *DirEntry) {
			if e == nil {
				d.unsetOver(a)
			}
		})
		d.frozen = nil
	}
}

// Scan implements the coherence-recovery directory sweep (§4.5): after the
// global cache flush, any line that still appears cached exclusive (or that
// is still locked waiting for an owner's writeback) has lost its only valid
// copy and is marked incoherent; every other entry is reset to "clean and
// not cached", because after the flush all processor caches are empty. It
// returns the addresses newly marked incoherent. Only incoherent lines
// survive it, so it copies those up and lets go of the frozen base.
func (d *Directory) Scan() []Addr {
	var lost []Addr
	d.sweep(func(a Addr, e *DirEntry) {
		switch e.State {
		case DirExclusive, DirPendingRecall:
			e.State = DirIncoherent
			lost = append(lost, a)
		case DirShared, DirPendingInval:
			e.State = DirInvalid
			e.Sharers.Clear()
		case DirIncoherent:
			// Stays incoherent until the OS scrubs it.
		}
		e.AcksLeft = 0
	}, true)
	return lost
}

// ScanLiveness is the §6.3 directory sweep variant for machines with a
// reliable (HAL-style) interconnect: no writeback was lost and caches were
// NOT flushed, so only lines entrusted to *dead* nodes are gone. Exclusive
// lines with live owners stay valid in place; dead sharers are pruned;
// locked lines are resolved according to whether their owner survived. A
// pending-invalidation line may still have live sharers we can no longer
// enumerate (the sharer list was consumed when the invalidations went out),
// so it conservatively becomes shared by every live node. It returns the
// addresses newly marked incoherent.
func (d *Directory) ScanLiveness(up func(node int) bool) []Addr {
	var lost []Addr
	d.sweep(func(a Addr, e *DirEntry) {
		switch e.State {
		case DirExclusive:
			if !up(e.Owner) {
				e.State = DirIncoherent
				lost = append(lost, a)
			}
		case DirPendingRecall:
			if up(e.Owner) {
				// The owner still holds the line; release the lock.
				// The aborted requester reissues after recovery.
				e.State = DirExclusive
			} else {
				e.State = DirIncoherent
				lost = append(lost, a)
			}
		case DirShared:
			// ForEach tolerates removing members as it goes.
			e.Sharers.ForEach(func(id int) {
				if !up(id) {
					e.Sharers.Remove(id)
				}
			})
			if e.Sharers.Empty() {
				e.State = DirInvalid
			}
		case DirPendingInval:
			// Unknown live sharers may remain: over-approximate.
			e.State = DirShared
			e.Sharers.fill(d.nodes, up)
		}
		e.AcksLeft = 0
	}, false)
	return lost
}

// Incoherent reports whether line a is marked incoherent.
func (d *Directory) Incoherent(a Addr) bool {
	e := d.Peek(a)
	return e != nil && e.State == DirIncoherent
}

// Scrub resets an incoherent line to invalid, modeling the MAGIC service
// Hive uses before reusing a page (§4.6). It reports whether the line was
// incoherent.
func (d *Directory) Scrub(a Addr) bool {
	if e := d.Peek(a); e == nil || e.State != DirIncoherent {
		return false
	}
	d.Drop(a)
	return true
}
