package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Partitioned runs one simulation as a set of region-local Engines advanced
// in conservative lookahead windows — classic conservative parallel
// discrete-event simulation behind the existing Engine API.
//
// The model: the caller fixes a decomposition of the simulated system into
// regions (a pure function of the system, never of the host), gives each
// region its own Engine, and promises that event handlers touch only their
// own region's state. Cross-region interactions go through Send, which
// requires a delay of at least the lookahead L. Execution then proceeds in
// windows of length L: within a window [W, W+L) every region's engine runs
// independently (in parallel on up to `workers` goroutines), because no
// event it fires can affect another region before W+L. At the window
// barrier, all cross-region messages produced during the window are merged
// into their destination engines in a deterministic global order.
//
// Determinism. Each region's execution is sequential and deterministic, so
// the only ordering freedom parallelism introduces is the merge order of
// cross-region messages. Send stamps every message with the key
// (deliverAt, sentAt, srcRegion, srcIndex) — all four components are
// properties of the simulation, not of the host — and the barrier inserts
// messages in exactly that order. Equal-timestamp messages from different
// regions therefore tie-break identically whether the windows ran on one
// worker or sixteen: results are bit-identical at any worker count,
// including all (time, sequence) ties.
//
// There is no escape from region confinement: a workload whose handlers
// touch another region's state (fault injection, recovery) does not run
// here, and the machine layer refuses it.
type Partitioned struct {
	engines   []*Engine
	lookahead Time
	workers   int

	windowStart Time

	outbox  [][]xmsg // per source region, filled during a window
	sendIdx []uint32 // per source region, reset at each barrier

	barriers uint64
	merged   uint64
	// Per-region deterministic load/stall accounting, exposed so the
	// machine can publish per-partition instruments.
	idleWindows []uint64 // windows in which the region fired no events
	mergedIn    []uint64 // cross-region events merged into the region
}

// xmsg is one cross-region message awaiting its barrier merge.
type xmsg struct {
	dst    int
	at     Time // delivery time
	sent   Time // send time (first merge tiebreak)
	src    int32
	idx    uint32 // per-source send index within the window
	cb     Callback
	a1, a2 any
	u      uint64
}

// splitmix64 decorrelates per-region engine seeds from the base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPartitioned builds a coordinator over `regions` fresh engines with the
// given lookahead window and worker budget. Region 0's engine uses the base
// seed itself; the others use decorrelated derived seeds.
func NewPartitioned(seed int64, regions int, lookahead Time, workers int) *Partitioned {
	if regions < 1 {
		panic("sim: partitioned simulation needs at least one region")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	engines := make([]*Engine, regions)
	for i := range engines {
		s := seed
		if i > 0 {
			s = int64(splitmix64(uint64(seed) + uint64(i)))
		}
		engines[i] = NewEngine(s)
	}
	return &Partitioned{
		engines:     engines,
		lookahead:   lookahead,
		workers:     max(workers, 1),
		outbox:      make([][]xmsg, len(engines)),
		sendIdx:     make([]uint32, len(engines)),
		idleWindows: make([]uint64, len(engines)),
		mergedIn:    make([]uint64, len(engines)),
	}
}

// Regions returns the number of regions.
func (p *Partitioned) Regions() int { return len(p.engines) }

// Region returns region i's engine. Handlers running on it must touch only
// region-i state.
func (p *Partitioned) Region(i int) *Engine { return p.engines[i] }

// Now returns the coordinator clock: the start of the next unexecuted
// window. Between windows every region's engine reads the same Now.
func (p *Partitioned) Now() Time { return p.windowStart }

// Send schedules cb(a1, a2, u) at absolute time `at` in region dst. It must
// be called from region src's execution (or between windows with src's
// engine clock current). The delivery time must not precede the end of the
// current window — equivalently, callers must keep cross-region delays at
// or above the lookahead; anything tighter would let one region affect
// another inside a window already running in parallel.
func (p *Partitioned) Send(src, dst int, at Time, cb Callback, a1, a2 any, u uint64) {
	if floor := p.windowStart + p.lookahead; at < floor {
		panic(fmt.Sprintf("sim: cross-region send at %v violates lookahead window ending at %v", at, floor))
	}
	p.outbox[src] = append(p.outbox[src], xmsg{
		dst: dst, at: at, sent: p.engines[src].Now(),
		src: int32(src), idx: p.sendIdx[src],
		cb: cb, a1: a1, a2: a2, u: u,
	})
	p.sendIdx[src]++
}

// Pending reports events resident anywhere: region queues plus unmerged
// cross-region messages.
func (p *Partitioned) Pending() int {
	n := 0
	for _, e := range p.engines {
		n += e.Pending()
	}
	for _, ob := range p.outbox {
		n += len(ob)
	}
	return n
}

// EventsFired sums the fired-event counters across regions.
func (p *Partitioned) EventsFired() uint64 {
	var n uint64
	for _, e := range p.engines {
		n += e.EventsFired()
	}
	return n
}

// Compactions sums the compaction counters across regions.
func (p *Partitioned) Compactions() uint64 {
	var n uint64
	for _, e := range p.engines {
		n += e.Compactions()
	}
	return n
}

// Barriers returns the number of window barriers executed.
func (p *Partitioned) Barriers() uint64 { return p.barriers }

// Merged returns the total cross-region events merged at barriers.
func (p *Partitioned) Merged() uint64 { return p.merged }

// RegionLoad returns region i's deterministic load accounting: events
// fired, windows in which it sat idle (lookahead stalls), and cross-region
// events merged into it.
func (p *Partitioned) RegionLoad(i int) (fired, idleWindows, mergedIn uint64) {
	return p.engines[i].EventsFired(), p.idleWindows[i], p.mergedIn[i]
}

// RunUntil advances all regions to time t, window by window. Like
// Engine.RunUntil it executes events with timestamps <= t and leaves every
// clock at t.
func (p *Partitioned) RunUntil(t Time) {
	for p.windowStart < t {
		end := p.windowStart + p.lookahead
		if end > t {
			end = t
		}
		p.runWindow(end)
	}
	// Windows ran events with at < t; finish the RunUntil contract by
	// firing the events at exactly t, then merging what they sent.
	p.runBoundary(t)
}

// Run advances windows until no work remains anywhere.
func (p *Partitioned) Run() {
	for p.Pending() > 0 {
		p.runWindow(p.windowStart + p.lookahead)
	}
}

// runWindow executes [windowStart, end) on every region, then performs the
// barrier: merge cross-region messages in deterministic order and advance
// the window clock.
func (p *Partitioned) runWindow(end Time) {
	if p.workers == 1 || len(p.engines) == 1 {
		p.runWindowSeq(end)
	} else {
		p.runWindowParallel(end)
	}
	p.windowStart = end
	p.mergeOutboxes()
	p.barriers++
}

// runWindowSeq is the one-worker window execution: each region in turn runs
// its slice of the window to completion. Region-confined handlers make the
// inter-region execution order unobservable, so this produces bit-identical
// results to runWindowParallel at any worker count — it just skips the
// goroutine machinery, which keeps the `-partitions 1` baseline honest.
func (p *Partitioned) runWindowSeq(end Time) {
	for i, e := range p.engines {
		before := e.fired
		e.runBefore(end)
		if e.fired == before {
			p.idleWindows[i]++
		}
	}
}

// runWindowParallel fires each region's events with at < end concurrently
// on up to p.workers goroutines.
func (p *Partitioned) runWindowParallel(end Time) {
	workers := p.workers
	if workers > len(p.engines) {
		workers = len(p.engines)
	}
	fired := make([]uint64, len(p.engines))
	var next atomic.Int32
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(p.engines) {
					return
				}
				e := p.engines[i]
				before := e.fired
				e.runBefore(end)
				fired[i] = e.fired - before
			}
		}()
	}
	wg.Wait()
	for i, f := range fired {
		if f == 0 {
			p.idleWindows[i]++
		}
	}
}

// runBoundary executes the events at exactly time t (the RunUntil target)
// in the same interleave, settles every clock at t, then merges any sends
// they produced. It always runs single-threaded: boundary events are the
// tail of a RunUntil contract, not a parallel window.
func (p *Partitioned) runBoundary(t Time) {
	p.interleave(t)
	for _, e := range p.engines {
		if e.now < t {
			e.now = t
		}
	}
	p.mergeOutboxes()
}

// interleave fires all regions' events with at <= last on the calling
// goroutine, in (time, region) order: always the globally earliest pending
// event, region index breaking timestamp ties: the one order every worker
// count's windows must reproduce.
func (p *Partitioned) interleave(last Time) {
	for {
		best := -1
		var bestAt Time
		for i, e := range p.engines {
			ev := e.peekNext()
			if ev == nil || ev.at > last {
				continue
			}
			if best < 0 || ev.at < bestAt {
				best, bestAt = i, ev.at
			}
		}
		if best < 0 {
			return
		}
		// Advance every region's clock to the fire time first, so no
		// region reads a stale clock. Safe because bestAt is the global
		// minimum pending timestamp: no region has an event behind it.
		for _, e := range p.engines {
			if e.now < bestAt {
				e.now = bestAt
			}
		}
		// Fire at most one event, and only at bestAt: a cancelled head may
		// make step consume residue and fire nothing, in which case the
		// next iteration re-peeks with the residue gone.
		e := p.engines[best]
		e.stopped = false
		e.step(bestAt, true)
	}
}

// mergeOutboxes inserts every pending cross-region message into its
// destination engine, ordered by (deliverAt, sentAt, srcRegion, srcIndex).
// Every key component is host-independent, so the resulting engine-local
// sequence numbers — and therefore all downstream (time, seq) tie-breaks —
// are identical at any worker count. Runs single-threaded.
func (p *Partitioned) mergeOutboxes() {
	var all []xmsg
	for src, ob := range p.outbox {
		all = append(all, ob...)
		p.outbox[src] = ob[:0]
		p.sendIdx[src] = 0
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.sent != b.sent {
			return a.sent < b.sent
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})
	for _, m := range all {
		p.engines[m.dst].AtCall(m.at, m.cb, m.a1, m.a2, m.u)
		p.mergedIn[m.dst]++
	}
	p.merged += uint64(len(all))
}

// runBefore executes events with timestamps strictly below t, then advances
// the clock to t. It is the window-execution primitive: firing an event at
// exactly t inside the window [W, t) would race with the barrier, which may
// merge same-timestamp cross-region events ahead of it in global order.
func (e *Engine) runBefore(t Time) {
	e.stopped = false
	for !e.stopped && e.step(t-1, true) {
	}
	if e.now < t {
		e.now = t
	}
}
