package coherence

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

// DirEntry is the directory state of one line at its home. Entries are
// created by a Directory, which backs Sharers with the entry's own inline
// word on machines of up to 64 nodes; copying an entry by value therefore
// aliases the original's sharer list (Directory's copy-on-write re-points
// it).
type DirEntry struct {
	State       DirState
	PendingExcl bool    // the pending request is a GETX (valid while State.Locked())
	Owner       int     // valid in DirExclusive and DirPendingRecall
	Sharers     NodeSet // valid in DirShared and DirPendingInval

	// Pending-transaction bookkeeping, valid while State.Locked():
	PendingReq int    // the requester the lock is held for
	AcksLeft   int    // outstanding invalidate acks (DirPendingInval)
	PendingSeq uint64 // requester's sequence number, echoed in the reply

	word [1]uint64 // Sharers' backing store when the machine has <= 64 nodes
}

// Directory is the home-side protocol state for one node's memory lines.
// Entries are sparse: absent means DirInvalid.
//
// A directory can be frozen for forking: Freeze seals the current entries
// as an immutable base map shared by any number of forked machines, and
// subsequent accesses copy entries up into a private overlay on first
// touch. A nil overlay value is a tombstone shadowing a deleted base
// entry. Whole-directory sweeps (ForEach, Scan, ScanLiveness) mutate every
// entry anyway, so they materialize the base into the overlay first and
// then run unchanged.
//
// Entries are carved from small per-directory chunks rather than allocated
// one by one (an entry and its sharer list per swept line were a third of
// the verify sweep's bytes). A dropped entry's slot is simply abandoned:
// its chunk is collected once every entry in it is gone. The chunk is kept
// small because a campaign holds every finished machine of a batch, and
// each of their directories carries up to a chunk of slack; for the same
// reason the index stays a sparse map — a dense array per node would
// multiply that resident heap.
type Directory struct {
	nodes   int
	entries map[Addr]*DirEntry // overlay; nil value = deleted base entry
	frozen  map[Addr]*DirEntry // shared immutable base; nil when never frozen
	chunk   []DirEntry         // entries are carved from its spare capacity
}

// dirChunk is the number of entries carved per allocation.
const dirChunk = 8

// newEntry carves a zeroed DirInvalid entry with an empty sharer list.
func (d *Directory) newEntry() *DirEntry {
	if len(d.chunk) == cap(d.chunk) {
		d.chunk = make([]DirEntry, 0, dirChunk)
	}
	d.chunk = d.chunk[:len(d.chunk)+1]
	e := &d.chunk[len(d.chunk)-1]
	if d.nodes <= 64 {
		e.Sharers = e.word[:]
	} else {
		e.Sharers = NewNodeSet(d.nodes)
	}
	return e
}

// NewDirectory returns an empty directory for a machine of n nodes.
func NewDirectory(n int) *Directory {
	return &Directory{nodes: n, entries: make(map[Addr]*DirEntry)}
}

// Freeze seals the directory's current contents as an immutable shared
// base and returns it. The directory itself continues copy-on-write on top
// of the same base, so freezing is invisible to protocol behavior; the
// returned map (entries included) must never be mutated.
func (d *Directory) Freeze() map[Addr]*DirEntry {
	d.materialize()
	d.frozen = d.entries
	d.entries = make(map[Addr]*DirEntry)
	return d.frozen
}

// ForkDirectory returns a directory whose initial contents are the frozen
// base, shared copy-on-write with every other fork of the same snapshot.
func ForkDirectory(nodes int, frozen map[Addr]*DirEntry) *Directory {
	return &Directory{nodes: nodes, entries: make(map[Addr]*DirEntry), frozen: frozen}
}

// cloneEntry copies a base entry up into a privately mutable one, with its
// sharer list re-pointed at the copy's own storage.
func (d *Directory) cloneEntry(e *DirEntry) *DirEntry {
	c := d.newEntry()
	sharers := c.Sharers
	*c = *e
	c.Sharers = sharers
	copy(c.Sharers, e.Sharers)
	return c
}

// materialize copies every un-shadowed base entry into the overlay and
// drops the base, removing tombstones along the way. Called before sweeps
// that visit (and mutate) every entry.
func (d *Directory) materialize() {
	if d.frozen != nil {
		for a, fe := range d.frozen {
			if _, shadowed := d.entries[a]; !shadowed {
				d.entries[a] = d.cloneEntry(fe)
			}
		}
		d.frozen = nil
	}
	for a, e := range d.entries {
		if e == nil {
			delete(d.entries, a)
		}
	}
}

// drop removes line a from the live view: a plain delete when no base
// entry shadows it, a nil tombstone otherwise.
func (d *Directory) drop(a Addr) {
	if _, ok := d.frozen[a]; ok {
		d.entries[a] = nil
	} else {
		delete(d.entries, a)
	}
}

// Lookup returns the entry for line a, or nil if the line is DirInvalid.
func (d *Directory) Lookup(a Addr) *DirEntry {
	a = a.Line()
	if e, ok := d.entries[a]; ok {
		return e // may be a nil tombstone: the line is DirInvalid
	}
	if fe, ok := d.frozen[a]; ok {
		e := d.cloneEntry(fe)
		d.entries[a] = e
		return e
	}
	return nil
}

// Get returns the entry for line a, creating a DirInvalid entry if needed.
func (d *Directory) Get(a Addr) *DirEntry {
	a = a.Line()
	e, ok := d.entries[a]
	if e != nil {
		return e
	}
	if !ok {
		if fe, fok := d.frozen[a]; fok {
			e = d.cloneEntry(fe)
			d.entries[a] = e
			return e
		}
	}
	e = d.newEntry()
	d.entries[a] = e
	return e
}

// Release removes a line's entry if it has returned to DirInvalid, keeping
// the directory sparse.
func (d *Directory) Release(a Addr) {
	a = a.Line()
	if e, ok := d.entries[a]; ok {
		if e != nil && e.State == DirInvalid {
			d.drop(a)
		}
		return
	}
	if fe, ok := d.frozen[a]; ok && fe.State == DirInvalid {
		d.drop(a)
	}
}

// Len returns the number of non-invalid entries, for tests.
func (d *Directory) Len() int {
	n := 0
	for _, e := range d.entries {
		if e != nil {
			n++
		}
	}
	for a := range d.frozen {
		if _, shadowed := d.entries[a]; !shadowed {
			n++
		}
	}
	return n
}

// ForEach visits all entries (order unspecified); the visitor may mutate
// entry state but must not add or delete entries.
func (d *Directory) ForEach(fn func(a Addr, e *DirEntry)) {
	d.materialize()
	for a, e := range d.entries {
		fn(a, e)
	}
}

// Scan implements the coherence-recovery directory sweep (§4.5): after the
// global cache flush, any line that still appears cached exclusive (or that
// is still locked waiting for an owner's writeback) has lost its only valid
// copy and is marked incoherent; every other entry is reset to "clean and
// not cached", because after the flush all processor caches are empty. It
// returns the addresses newly marked incoherent.
func (d *Directory) Scan() []Addr {
	d.materialize()
	var lost []Addr
	for a, e := range d.entries {
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
	}
	// Drop entries that returned to invalid.
	for a, e := range d.entries {
		if e.State == DirInvalid {
			delete(d.entries, a)
		}
	}
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
	d.materialize()
	var lost []Addr
	for a, e := range d.entries {
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
			live := e.Sharers.Clone()
			e.Sharers.ForEach(func(id int) {
				if !up(id) {
					live.Remove(id)
				}
			})
			copy(e.Sharers, live)
			if e.Sharers.Empty() {
				e.State = DirInvalid
			}
		case DirPendingInval:
			// Unknown live sharers may remain: over-approximate.
			e.State = DirShared
			e.Sharers.Clear()
			for i := 0; i < d.nodes; i++ {
				if up(i) {
					e.Sharers.Add(i)
				}
			}
		}
		e.AcksLeft = 0
	}
	for a, e := range d.entries {
		if e.State == DirInvalid {
			delete(d.entries, a)
		}
	}
	return lost
}

// Incoherent reports whether line a is marked incoherent.
func (d *Directory) Incoherent(a Addr) bool {
	e := d.Lookup(a)
	return e != nil && e.State == DirIncoherent
}

// Scrub resets an incoherent line to invalid, modeling the MAGIC service
// Hive uses before reusing a page (§4.6). It reports whether the line was
// incoherent.
func (d *Directory) Scrub(a Addr) bool {
	a = a.Line()
	if e, ok := d.entries[a]; ok {
		if e == nil || e.State != DirIncoherent {
			return false
		}
		d.drop(a)
		return true
	}
	if fe, ok := d.frozen[a]; ok && fe.State == DirIncoherent {
		d.drop(a)
		return true
	}
	return false
}
