package machine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"flashfc/internal/coherence"
)

// Judgement is Judge's verdict: one line per violation, invariants first,
// then the value audit in address order. It is empty on a passing run.
type Judgement []string

// OK reports whether the judge found nothing.
func (j Judgement) OK() bool { return len(j) == 0 }

// String names the violation count and the first three.
func (j Judgement) String() string {
	return fmt.Sprintf("judge: %d violations: %s", len(j), strings.Join(j[:min(3, len(j))], "; "))
}

// Judge is the host-side verdict on a recovered machine, taken between
// recovery and any sweep. It runs CheckCoherenceInvariants and a value
// audit of every line the oracle saw written and every line a serving home
// marks incoherent:
//
//   - a line's authoritative copy — a live owner's cache line while the
//     directory holds it exclusive there, home memory otherwise — must hold
//     its last committed token;
//   - or else the line must be marked incoherent and the oracle must know
//     it may have been lost; a line marked incoherent that the oracle does
//     not is over-marked.
//
// Lines homed where nothing serves them are left to the node map's bus
// error, lines in a transient state and an owner's missing line to the
// invariants. The audit reads in place and adds no simulated events; a
// passing run allocates nothing per line.
func (m *Machine) Judge() Judgement {
	bad := Judgement(m.CheckCoherenceInvariants())
	type violation struct {
		a   coherence.Addr
		msg string
	}
	var found []violation
	for a, tok := range m.Oracle.expected {
		home := m.Space.Home(a)
		if !m.live.HomeServes(home) {
			continue
		}
		h := m.Nodes[home]
		got := h.Mem.Read(a)
		if e := h.Dir.Peek(a); e != nil {
			switch e.State {
			case coherence.DirIncoherent, coherence.DirPendingRecall, coherence.DirPendingInval:
				continue
			case coherence.DirExclusive:
				if m.live.Live(e.Owner) {
					l := m.Nodes[e.Owner].Cache.Lookup(a)
					if l == nil {
						continue
					}
					got = l.Token
				}
			}
		}
		if got != tok {
			found = append(found, violation{a, fmt.Sprintf("holds %x, last committed %x, and is not marked incoherent", got, tok)})
		}
	}
	for _, h := range m.Nodes {
		if !m.live.HomeServes(h.ID) {
			continue
		}
		h.Dir.ForEach(func(a coherence.Addr, e *coherence.DirEntry) {
			if e.State == coherence.DirIncoherent && !m.Oracle.MayBeLost(a) {
				found = append(found, violation{a, "marked incoherent without a justifying loss"})
			}
		})
	}
	slices.SortFunc(found, func(x, y violation) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.msg, y.msg))
	})
	for _, v := range found {
		bad = append(bad, fmt.Sprintf("%v: %s", v.a, v.msg))
	}
	return bad
}
