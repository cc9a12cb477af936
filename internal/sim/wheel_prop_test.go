package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The timing wheel must be observationally identical to a plain min-ordered
// event queue: same pop order by (at, seq), same Pending/EventsFired counts,
// and — because the goldens pin it — the same compaction count. refSched is
// that specification, written as naively as possible (linear-scan min pop)
// so that it is obviously correct, and the property test below drives both
// implementations through randomized schedule/cancel/advance scripts that
// cover every placement tier: level-0 slots, cascades from levels 1 and 2,
// events beyond the 2^30 ns window that wait in level 2's last slot and are
// placed again each time it is reached, and same-slot inserts that land
// in the live drain run. Bursts of hundreds to thousands of events into one
// slot, and the scripted scenarios further down, take the comparison through
// both ways loadDrain sorts a slot and through the cached upper-level scans.

type popRec struct {
	at Time
	id int
}

type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
	gone      bool // popped or purged; cancel must fail
	spawn     Time // on firing, schedule a follow-up this much later; < 0: none
}

type refSched struct {
	pending     []*refEvent
	now         Time
	seq         uint64
	fired       uint64
	compactions uint64
	total, live int
	nextSpawn   int
	order       []popRec
}

func (r *refSched) schedule(d Time, id int, spawn Time) *refEvent {
	ev := &refEvent{at: r.now + d, seq: r.seq, id: id, spawn: spawn}
	r.seq++
	r.pending = append(r.pending, ev)
	r.total++
	r.live++
	return ev
}

func (r *refSched) cancel(ev *refEvent) bool {
	if ev.gone || ev.cancelled {
		return false
	}
	ev.cancelled = true
	r.live--
	if r.total >= compactMin && 2*r.live < r.total {
		r.compactions++
		k := 0
		for _, p := range r.pending {
			if p.cancelled {
				p.gone = true
			} else {
				r.pending[k] = p
				k++
			}
		}
		r.pending = r.pending[:k]
		r.total = r.live
	}
	return true
}

func (r *refSched) runUntil(t Time) {
	for {
		mi := -1
		for i, ev := range r.pending {
			if mi < 0 || ev.at < r.pending[mi].at ||
				(ev.at == r.pending[mi].at && ev.seq < r.pending[mi].seq) {
				mi = i
			}
		}
		if mi < 0 || r.pending[mi].at > t {
			break
		}
		ev := r.pending[mi]
		r.pending = append(r.pending[:mi], r.pending[mi+1:]...)
		ev.gone = true
		r.total--
		if ev.cancelled {
			continue
		}
		r.live--
		r.now = ev.at
		r.fired++
		r.order = append(r.order, popRec{ev.at, ev.id})
		if ev.spawn >= 0 {
			id := r.nextSpawn
			r.nextSpawn++
			r.schedule(ev.spawn, id, -1)
		}
	}
	if r.now < t {
		r.now = t
	}
}

// spawnBase is where the ids of spawned follow-up events start.
const spawnBase = 1 << 20

// refPair drives an Engine and the reference through the same script.
type refPair struct {
	t       *testing.T
	e       *Engine
	ref     *refSched
	got     []popRec
	timers  []Timer
	refEvs  []*refEvent
	spawnID int
}

func newRefPair(t *testing.T) *refPair {
	return &refPair{t: t, e: NewEngine(1), ref: &refSched{nextSpawn: spawnBase}, spawnID: spawnBase}
}

func (p *refPair) fire(id int, spawn Time) func() {
	return func() {
		p.got = append(p.got, popRec{p.e.Now(), id})
		if spawn >= 0 {
			nid := p.spawnID
			p.spawnID++
			p.e.After(spawn, p.fire(nid, -1))
		}
	}
}

// after schedules an event d from now on both sides and returns its id.
func (p *refPair) after(d, spawn Time) int {
	id := len(p.timers)
	p.timers = append(p.timers, p.e.After(d, p.fire(id, spawn)))
	p.refEvs = append(p.refEvs, p.ref.schedule(d, id, spawn))
	return id
}

func (p *refPair) cancel(id int) {
	p.t.Helper()
	if got, want := p.timers[id].Cancel(), p.ref.cancel(p.refEvs[id]); got != want {
		p.t.Fatalf("Cancel(%d) = %v, reference says %v", id, got, want)
	}
}

// runUntil advances both sides to t and compares everything observable.
func (p *refPair) runUntil(t Time) {
	p.t.Helper()
	p.e.RunUntil(t)
	p.ref.runUntil(t)
	if len(p.got) != len(p.ref.order) {
		p.t.Fatalf("engine fired %d events, reference fired %d", len(p.got), len(p.ref.order))
	}
	for i := range p.got {
		if p.got[i] != p.ref.order[i] {
			p.t.Fatalf("pop %d is (t=%v id=%d), reference says (t=%v id=%d)",
				i, p.got[i].at, p.got[i].id, p.ref.order[i].at, p.ref.order[i].id)
		}
	}
	if p.e.Pending() != p.ref.live {
		p.t.Fatalf("Pending() = %d, reference %d", p.e.Pending(), p.ref.live)
	}
	if p.e.EventsFired() != p.ref.fired {
		p.t.Fatalf("EventsFired() = %d, reference %d", p.e.EventsFired(), p.ref.fired)
	}
	if p.e.Compactions() != p.ref.compactions {
		p.t.Fatalf("Compactions() = %d, reference %d", p.e.Compactions(), p.ref.compactions)
	}
}

// respawnDelay derives a deterministic follow-up delay from an event id.
func respawnDelay(id int) Time {
	return Time(uint64(id) * 2654435761 % (1 << 16))
}

// randDelay stresses every placement tier of the wheel, beyond its window
// included.
func randDelay(rng *rand.Rand) Time {
	switch rng.Intn(6) {
	case 0:
		return Time(rng.Intn(64)) // level-0 slot, often the live drain run
	case 1:
		return Time(rng.Intn(1 << 14)) // level 1 cascade
	case 2:
		return Time(rng.Intn(1 << 22)) // level 2 cascade
	case 3:
		return Time(rng.Intn(1 << 30)) // anywhere in the wheel's window
	case 4:
		return Time(1<<30 + rng.Int63n(1<<32)) // beyond it, a few cascades
	default:
		return Time(1<<34 + rng.Int63n(1<<40-1<<34)) // hours ahead
	}
}

func TestWheelMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		t.Run(fmt.Sprint("trial", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			p := newRefPair(t)
			for round := 0; round < 40; round++ {
				for j, k := 0, rng.Intn(20); j < k; j++ {
					spawn := Time(-1)
					if rng.Intn(4) == 0 {
						spawn = respawnDelay(len(p.timers))
					}
					p.after(randDelay(rng), spawn)
				}
				if trial%3 == 0 && rng.Intn(4) == 0 {
					// A burst into one slot, near or far, with ties
					// and follow-ups that land in the same slot.
					base := Time(rng.Intn(1 << uint(6+rng.Intn(17))))
					k := countingSortMin + rng.Intn(200)
					if rng.Intn(8) == 0 {
						k += 1024
					}
					for j := 0; j < k; j++ {
						spawn := Time(-1)
						if rng.Intn(16) == 0 {
							spawn = Time(rng.Intn(48))
						}
						p.after(base+Time(rng.Intn(24)), spawn)
					}
				}
				for j, k := 0, rng.Intn(8); j < k && len(p.timers) > 0; j++ {
					p.cancel(rng.Intn(len(p.timers)))
				}
				p.runUntil(p.e.Now() + Time(rng.Int63n(1<<uint(6+rng.Intn(27)))))
			}
			// Drain everything, hours ahead included.
			p.runUntil(Time(1) << 62)
			if p.e.Pending() != 0 {
				t.Fatalf("%d events still pending after full drain", p.e.Pending())
			}
		})
	}
}

// beyondWindow counts the wheel's resident events that lie past the top
// level's window from the current placement reference: the ones waiting in
// its last slot to be placed again.
func beyondWindow(e *Engine) int {
	n := 0
	for _, q := range e.wheel.lists[numLevels-2] {
		for _, ev := range q.events() {
			if ev.at-e.ref() >= 1<<(baseShift+numLevels*slotBits) {
				n++
			}
		}
	}
	return n
}

// An event a day ahead waits in the top level's last slot and is placed
// again each time that slot is reached, about 80 000 times. It must fire at
// exactly its time, alone or among neighbours at the same instant: those
// scheduled with it from time zero, one hour in (still beyond the window),
// a millisecond before (straight into level 1) and 10 ns before (straight
// into level 0, behind the cascaded ones). All fire in scheduling order.
func TestEventBeyondHorizonFiresOnTime(t *testing.T) {
	const day = 24 * 3600 * Second
	t.Run("alone", func(t *testing.T) {
		e := NewEngine(1)
		fired := Time(-1)
		e.After(day, func() { fired = e.Now() })
		if n := beyondWindow(e); n != 1 {
			t.Fatalf("%d events wait beyond the window, want 1", n)
		}
		e.Run()
		if fired != day || e.EventsFired() != 1 {
			t.Fatalf("fired at %v after %d events, want %v after 1", fired, e.EventsFired(), day)
		}
	})
	t.Run("with neighbours", func(t *testing.T) {
		e := NewEngine(1)
		var got []popRec
		next := 0
		batch := func() {
			for i := 0; i < 12; i++ {
				id := next
				next++
				e.At(day, func() { got = append(got, popRec{e.Now(), id}) })
			}
		}
		batch()
		e.At(day+1, func() { got = append(got, popRec{e.Now(), -1}) })
		e.At(3600*Second, batch)
		e.At(day-Millisecond, batch)
		e.At(day-10, batch)
		if n := beyondWindow(e); n != 16 {
			t.Fatalf("%d events wait beyond the window, want 16", n)
		}
		e.Run()
		if len(got) != 4*12+1 {
			t.Fatalf("%d events fired, want %d", len(got), 4*12+1)
		}
		for i, r := range got[:48] {
			if r != (popRec{day, i}) {
				t.Fatalf("pop %d is (t=%v id=%d), want (t=%v id=%d)", i, r.at, r.id, day, i)
			}
		}
		if r := got[48]; r != (popRec{day + 1, -1}) {
			t.Fatalf("last pop is (t=%v id=%d), want the event 1 ns later", r.at, r.id)
		}
	})
}

// events lists an upper-level slot's events in placement order.
func (q eventList) events() []*event {
	var evs []*event
	for ev := q.head; ev != nil; ev = ev.next {
		evs = append(evs, ev)
	}
	return evs
}

// seqSorted reports whether evs are in scheduling order.
func seqSorted(evs []*event) bool {
	for i := 1; i < len(evs); i++ {
		if evs[i].seq < evs[i-1].seq {
			return false
		}
	}
	return true
}

// One slot of 2048 events on 24 timestamps, scheduled straight into level 0:
// the slot is in seq order, so loadDrain counting-sorts it. A fifth of the
// events are cancelled while resident, and every eighth spawns a follow-up
// 0-40 ns later, which insertDrain merges into the counting-sorted run (or
// places in the next slot).
func TestBigSlotCountingSort(t *testing.T) {
	p := newRefPair(t)
	const slotAt = 640
	for i := 0; i < 2048; i++ {
		spawn := Time(-1)
		if i%8 == 0 {
			spawn = Time(i % 41)
		}
		p.after(slotAt+Time(i*7%24), spawn)
	}
	for id := 0; id < 2048; id += 5 {
		p.cancel(id)
	}
	slot := p.e.wheel.slots[slotAt>>baseShift&slotMask]
	if len(slot) != 2048 || !seqSorted(slot) {
		t.Fatalf("slot holds %d events, seq-sorted %v: the counting sort would not run", len(slot), seqSorted(slot))
	}
	p.runUntil(slotAt + 10) // stop inside the run, with spawns merged into it
	p.cancel(2047)          // a cancel inside the loaded run
	p.runUntil(2000)
	if p.e.Pending() != 0 {
		t.Fatalf("%d events still pending", p.e.Pending())
	}
}

// A slot that takes direct placements first and a cascade afterwards is out
// of seq order — the cascaded events were scheduled earlier — and must take
// loadDrain's comparison fallback. The blocker event keeps the wheel cursor
// short of the level-1 slot while the placement reference moves close enough
// for the second batch to go straight into level 0.
func TestCascadedSlotFallsBackToComparisonSort(t *testing.T) {
	p := newRefPair(t)
	const target = 20000 // 312 slots out: level 1 from time zero
	p.after(5000, -1)
	p.after(16000, -1) // the blocker, in level 0 from the start
	for i := 0; i < 600; i++ {
		p.after(target+Time(i%24), -1)
	}
	p.runUntil(5000) // loads the blocker's slot: the reference is now 16064
	old := p.e.wheel.lists[0][target>>(baseShift+slotBits)&slotMask].events()
	if len(old) != 600 {
		t.Fatalf("level-1 slot holds %d events, want the 600 scheduled from afar", len(old))
	}
	for i := 0; i < 600; i++ {
		spawn := Time(-1)
		if i%16 == 0 {
			spawn = Time(i % 30)
		}
		p.after(target-5000+Time(i%24), spawn)
	}
	young := p.e.wheel.slots[target>>baseShift&slotMask]
	if len(young) != 600 || young[0].seq < old[len(old)-1].seq {
		t.Fatalf("level-0 slot holds %d events: the direct placements did not get in ahead of the cascade", len(young))
	}
	for id := 2; id < 1202; id += 7 {
		p.cancel(id)
	}
	p.runUntil(target + 10)
	p.runUntil(30000)
	if p.e.Pending() != 0 {
		t.Fatalf("%d events still pending", p.e.Pending())
	}
}

// loadDrain must produce (at, seq) order whichever way it sorts: counting
// sort for a big seq-ordered slot, comparison sort for a small slot and for
// a big one out of seq order.
func TestLoadDrainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name     string
		n        int
		shuffled bool
	}{
		{"one", 1, false},
		{"small", countingSortMin - 1, false},
		{"small-shuffled", countingSortMin - 1, true},
		{"threshold", countingSortMin, false},
		{"big", 3000, false},
		{"big-shuffled", 3000, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			evs := make([]*event, c.n)
			for i := range evs {
				evs[i] = &event{at: 1<<20 + Time(rng.Intn(1<<baseShift)), seq: uint64(i)}
			}
			if c.shuffled {
				rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			}
			if seqSorted(evs) == c.shuffled {
				t.Fatalf("input seq-sorted = %v", !c.shuffled)
			}
			e := NewEngine(1)
			e.loadDrain(evs)
			if len(e.drain) != c.n {
				t.Fatalf("drain holds %d events, want %d", len(e.drain), c.n)
			}
			for i := 1; i < len(e.drain); i++ {
				a, b := e.drain[i-1], e.drain[i]
				if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
					t.Fatalf("drain[%d]=(%v,%d) before drain[%d]=(%v,%d)", i-1, a.at, a.seq, i, b.at, b.seq)
				}
			}
		})
	}
}

// The cached earliest slot of an upper level must follow everything that
// can change it: a placement ahead of it, a compaction that empties it, and
// the cascade that takes it. A level-0 blocker keeps the upper levels from
// cascading while the test looks at them.
func TestUpperLevelMinCacheStaysExact(t *testing.T) {
	const l1Shift = baseShift + slotBits
	p := newRefPair(t)
	p.after(100, -1)
	p.after(10*Microsecond, -1) // the blocker
	var doomed []int
	for i := 0; i < 40; i++ {
		doomed = append(doomed, p.after(100*Microsecond+Time(i), -1))
	}
	p.after(150*Microsecond, -1)
	p.after(20*Millisecond, -1) // level 2
	p.runUntil(200)             // the refill behind the first event scans both upper levels
	for l := 1; l < numLevels; l++ {
		if m := p.e.wheel.levels[l].min; !m.known || !m.any {
			t.Fatalf("level %d: earliest slot not cached after a refill: %+v", l, m)
		}
	}
	l1 := &p.e.wheel.levels[1].min
	if want := 100 * Microsecond >> l1Shift << l1Shift; l1.base != want {
		t.Fatalf("level 1 earliest base = %v, want %v", l1.base, want)
	}
	// A placement ahead of the cached minimum replaces it.
	ahead := p.after(50*Microsecond, -1)
	if want := (200 + 50*Microsecond) >> l1Shift << l1Shift; !l1.known || l1.base != want {
		t.Fatalf("after placing ahead: level 1 cache %+v, want base %v", *l1, want)
	}
	// A compaction that empties the cached slot drops the cache: cancel
	// that event first, among enough others to cross the trigger.
	doomed = append([]int{ahead}, doomed...)
	for i := 0; i < 80; i++ {
		doomed = append(doomed, p.after(120*Microsecond+Time(i), -1))
	}
	for _, id := range doomed {
		p.cancel(id)
	}
	if p.e.Compactions() != 1 {
		t.Fatalf("%d compactions, want 1", p.e.Compactions())
	}
	if l1.known {
		t.Fatalf("compaction left the level-1 cache in place over a purged slot: %+v", *l1)
	}
	p.after(30*Microsecond, -1)
	p.runUntil(Second)
	if p.e.Pending() != 0 {
		t.Fatalf("%d events still pending", p.e.Pending())
	}
}

// Upper-level slots are lists threaded through the pooled event records, so
// placing an event there touches the heap not at all, even in a slot a
// fresh engine has never used. Each round uses a new level-1 and a new
// level-2 slot.
func TestUpperLevelPlacementAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.free = append(e.free, &event{})
	}
	const l1, l2 = Time(1) << (baseShift + slotBits), Time(1) << (baseShift + 2*slotBits)
	round := Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		round++
		e.At(round*l1+l1/2, fn) // level 1: 16 us to 4 ms out
		e.At(round*l2+l2, fn)   // level 2: 4 ms to 1 s out
	})
	if allocs != 0 {
		t.Fatalf("placing into level-1 and level-2 slots allocates %.2f per round, want 0", allocs)
	}
	for l := 1; l < numLevels; l++ {
		n := 0
		for _, q := range e.wheel.lists[l-1] {
			n += len(q.events())
		}
		if n != 201 {
			t.Fatalf("level %d holds %d events, want 201", l, n)
		}
	}
}
