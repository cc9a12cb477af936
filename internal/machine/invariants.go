package machine

import (
	"cmp"
	"fmt"
	"slices"

	"flashfc/internal/coherence"
)

// CheckCoherenceInvariants validates the global coherence state at a
// quiescent point (no operations in flight) and returns a description of
// every violation found:
//
//   - an exclusive line is resident in exactly its owner's cache;
//   - every resident copy of a shared line matches the home memory, and
//     its holder is recorded in the sharer list (silent evictions make the
//     recorded list a superset, never a subset);
//   - no line is resident in any cache without a directory entry naming
//     that cache;
//   - no directory entry is stuck in a transient (locked) state.
//
// The check knows which hardware failed, from the liveness view. A node
// that is not Live — dead, cut off, or shut down by recovery — has no cache
// worth checking, and a home that does not serve no directory: both are
// skipped, along with every rule that would look into them. A home whose
// processor died but whose memory bank still answers (CPU-fail/memory-
// survives) serves, so it keeps its directory's rules, as the verify sweep
// holds it to live-home standards.
//
// Violations are reported in address order (those of one line in sweep
// order), so the result is the same bytes on every call. Tests call this
// after workloads and after recovery; it is the protocol-level ground
// truth the §5.2 experiments rely on. It only reads: a forked machine's
// shared directory and memory images are not copied up.
func (m *Machine) CheckCoherenceInvariants() []string {
	type violation struct {
		a   coherence.Addr
		msg string
	}
	var found []violation
	flag := func(a coherence.Addr, format string, args ...any) {
		found = append(found, violation{a, fmt.Sprintf(format, args...)})
	}
	// Forward sweep: directory entries against caches.
	for _, home := range m.Nodes {
		if !m.live.HomeServes(home.ID) {
			continue
		}
		home.Dir.ForEach(func(a coherence.Addr, e *coherence.DirEntry) {
			switch e.State {
			case coherence.DirExclusive:
				if m.live.Live(e.Owner) {
					owner := m.Nodes[e.Owner]
					l := owner.Cache.Lookup(a)
					if l == nil {
						flag(a, "exclusive at %d but not resident", e.Owner)
					} else if l.State != coherence.CacheExclusive {
						flag(a, "owner %d holds it non-exclusive", e.Owner)
					}
				}
				for _, n := range m.Nodes {
					if m.live.Live(n.ID) && n.ID != e.Owner && n.Cache.Lookup(a) != nil {
						flag(a, "second copy at %d beside owner %d", n.ID, e.Owner)
					}
				}
			case coherence.DirShared:
				memTok := home.Mem.Read(a)
				for _, n := range m.Nodes {
					if !m.live.Live(n.ID) {
						continue
					}
					l := n.Cache.Lookup(a)
					if l == nil {
						continue
					}
					if !e.Sharers.Has(n.ID) {
						flag(a, "unrecorded sharer %d", n.ID)
					}
					if l.State != coherence.CacheShared {
						flag(a, "sharer %d holds it exclusive", n.ID)
					}
					if l.Token != memTok {
						flag(a, "sharer %d token %x != memory %x", n.ID, l.Token, memTok)
					}
				}
			case coherence.DirPendingRecall, coherence.DirPendingInval:
				flag(a, "stuck in %v at quiescence", e.State)
			}
		})
	}
	// Reverse sweep: cached lines must be known to their homes.
	for _, n := range m.Nodes {
		if !m.live.Live(n.ID) {
			continue
		}
		n.Cache.ForEach(func(a coherence.Addr, l *coherence.CacheLine) {
			home := m.Nodes[m.Space.Home(a)]
			if !m.live.HomeServes(home.ID) {
				return
			}
			e := home.Dir.Peek(a)
			if e == nil {
				flag(a, "resident at %d with no directory entry", n.ID)
				return
			}
			switch e.State {
			case coherence.DirExclusive:
				if e.Owner != n.ID {
					flag(a, "resident at %d but owned by %d", n.ID, e.Owner)
				}
			case coherence.DirShared:
				if !e.Sharers.Has(n.ID) {
					flag(a, "resident at %d but not a recorded sharer", n.ID)
				}
			case coherence.DirIncoherent:
				flag(a, "resident at %d while marked incoherent", n.ID)
			}
		})
	}
	slices.SortStableFunc(found, func(x, y violation) int { return cmp.Compare(x.a, y.a) })
	var bad []string
	for _, v := range found {
		bad = append(bad, fmt.Sprintf("%v: %s", v.a, v.msg))
	}
	return bad
}
