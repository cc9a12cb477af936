package machine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"flashfc/internal/core"
	"flashfc/internal/interconnect"
)

// A recovery that repeats one failure epoch after epoch never finishes: each
// restart meets the same recovery-lane drops and the same stalled agents,
// and only the deadline ends it. The livelock watch catches the repeat. Per
// recovery epoch it keeps a digest — the recovery-lane drops of that epoch's
// messages (kind, source, destination, round) and the agents whose watchdog
// fired in it (node, phase, round) — and once two consecutive epochs'
// digests are equal the run stops, its note naming both.
//
// The watch starts at the first watchdog restart: a run with none computes
// and allocates nothing for it. The first epoch it sees is partial (its
// drops before the restart went unrecorded), and an epoch's stragglers may
// be dropped after the next has begun, so the watch compares two epochs
// only once a third has stalled: the first stall of epoch k compares
// epochs k−1 and k−2, both over and both recorded whole.
type livelockWatch struct {
	first   int // the epoch of the first restart; 0 until one happens
	stalled int // the latest epoch a watchdog fired in
	digests map[int]*epochDigest
	note    string // set once two consecutive epochs repeat
}

// epochDigest is what one recovery epoch met: its drops and its stalls.
type epochDigest struct {
	drops  []lostRecovery
	stalls []stalledAgent
}

type lostRecovery struct {
	kind          string
	src, dst, rnd int
}

type stalledAgent struct {
	node  int
	phase core.Phase
	rnd   int
}

// Livelock returns the note of a run the livelock watch stopped: the two
// epochs that repeated, their drops and their stalled agents. It is empty
// while no two consecutive epochs have repeated.
func (m *Machine) Livelock() string { return m.watch.note }

// packetLost is the fabric's OnLost: the oracle learns of lost data, and
// once a restart has opened the livelock watch, the epoch's digest of a
// lost recovery message.
func (m *Machine) packetLost(p *interconnect.Packet) {
	m.Oracle.PacketLost(p)
	w := &m.watch
	if w.first == 0 || !p.Lane.IsRecovery() {
		return
	}
	if kind, epoch, rnd, ok := core.RecoveryMessage(p); ok && epoch > w.first {
		d := w.digest(epoch)
		d.drops = append(d.drops, lostRecovery{kind, p.Src, p.Dst, rnd})
	}
}

// agentStalled is the agents' OnStall: node's watchdog fired at epoch in
// phase p and round rnd, and the node is about to restart.
func (m *Machine) agentStalled(node int, p core.Phase, rnd, epoch int) {
	w := &m.watch
	if w.first == 0 {
		w.first = epoch
		w.digests = map[int]*epochDigest{}
	}
	if epoch > w.stalled {
		w.stalled = epoch
		if epoch-2 > w.first {
			w.compare(epoch-2, epoch-1)
		}
	}
	d := w.digest(epoch)
	d.stalls = append(d.stalls, stalledAgent{node, p, rnd})
}

// digest returns epoch's digest, opening it on first use.
func (w *livelockWatch) digest(epoch int) *epochDigest {
	d := w.digests[epoch]
	if d == nil {
		d = &epochDigest{}
		w.digests[epoch] = d
	}
	return d
}

// compare sets the note when epochs a and b (= a+1) met the same drops and
// stalls, and forgets a.
func (w *livelockWatch) compare(a, b int) {
	da, db := w.digests[a], w.digests[b]
	delete(w.digests, a)
	if w.note != "" || da == nil || db == nil || !da.equal(db) {
		return
	}
	w.note = fmt.Sprintf("livelock: epochs %d and %d repeat: %s", a, b, db)
}

// equal reports whether d and o hold the same drops and stalls, in any
// order.
func (d *epochDigest) equal(o *epochDigest) bool {
	d.sort()
	o.sort()
	return slices.Equal(d.drops, o.drops) && slices.Equal(d.stalls, o.stalls)
}

func (d *epochDigest) sort() {
	slices.SortFunc(d.drops, func(x, y lostRecovery) int {
		return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.dst, y.dst),
			cmp.Compare(x.rnd, y.rnd), cmp.Compare(x.kind, y.kind))
	})
	slices.SortFunc(d.stalls, func(x, y stalledAgent) int {
		return cmp.Or(cmp.Compare(x.node, y.node), cmp.Compare(x.phase, y.phase), cmp.Compare(x.rnd, y.rnd))
	})
}

// String names the digest's drops and stalls, at most eight of each.
func (d *epochDigest) String() string {
	const most = 8
	var b strings.Builder
	fmt.Fprintf(&b, "%d recovery-lane drops", len(d.drops))
	for i, x := range d.drops[:min(most, len(d.drops))] {
		sep := ", "
		if i == 0 {
			sep = " ("
		}
		fmt.Fprintf(&b, "%s%s %d→%d round %d", sep, x.kind, x.src, x.dst, x.rnd)
	}
	if len(d.drops) > most {
		fmt.Fprintf(&b, ", … %d more", len(d.drops)-most)
	}
	if len(d.drops) > 0 {
		b.WriteString(")")
	}
	fmt.Fprintf(&b, "; watchdog fired at %d agents", len(d.stalls))
	for i, x := range d.stalls[:min(most, len(d.stalls))] {
		sep := ", "
		if i == 0 {
			sep = " ("
		}
		fmt.Fprintf(&b, "%snode %d in %v round %d", sep, x.node, x.phase, x.rnd)
	}
	if len(d.stalls) > most {
		fmt.Fprintf(&b, ", … %d more", len(d.stalls)-most)
	}
	if len(d.stalls) > 0 {
		b.WriteString(")")
	}
	return b.String()
}
