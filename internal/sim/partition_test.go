package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// progResult captures everything observable about one partitioned run of the
// randomized program: per-region handler logs plus the deterministic
// coordinator counters. Two runs are "bit-identical" when these compare
// deep-equal.
type progResult struct {
	Logs     [][]string
	Now      Time
	Fired    uint64
	Merged   uint64
	Barriers uint64
	Idle     []uint64
	MergedIn []uint64
}

// runRandomProgram executes a self-expanding randomized event program on a
// partitioned simulation: every handler logs (region, time, id), then uses
// its own region's deterministic RNG to schedule further local events and
// cross-region sends (always at or beyond the lookahead). All mutable state
// is region-confined, per the Partitioned contract. interleaved drives it
// through the reference order instead of the windows (see drive).
func runRandomProgram(seed int64, regions, workers int, interleaved bool, chunk Time) progResult {
	const L = Time(750)
	p := NewPartitioned(seed, regions, L, workers)
	logs := make([][]string, regions)
	nextID := make([]uint64, regions)

	var handler func(region int, depth int) func()
	handler = func(region int, depth int) func() {
		return func() {
			e := p.Region(region)
			id := nextID[region]
			nextID[region]++
			logs[region] = append(logs[region], fmt.Sprintf("r%d@%d #%d d%d", region, e.Now(), id, depth))
			if depth >= 5 {
				return
			}
			r := e.Rand()
			for j, n := 0, r.Intn(3); j < n; j++ {
				if regions > 1 && r.Intn(3) == 0 {
					dst := r.Intn(regions)
					at := e.Now() + L + Time(r.Intn(4000))
					p.Send(region, dst, at, runFunc, handler(dst, depth+1), nil, 0)
				} else {
					e.After(Time(r.Intn(2500)), handler(region, depth+1))
				}
			}
		}
	}

	for i := 0; i < regions; i++ {
		e := p.Region(i)
		for k := 0; k < 4; k++ {
			e.At(Time(1+97*i+389*k), handler(i, 0))
		}
	}

	drive(p, interleaved, chunk)

	res := progResult{Logs: logs, Now: p.Now(), Fired: p.EventsFired(), Merged: p.Merged(), Barriers: p.Barriers()}
	for i := 0; i < regions; i++ {
		_, idle, min := p.RegionLoad(i)
		res.Idle = append(res.Idle, idle)
		res.MergedIn = append(res.MergedIn, min)
	}
	return res
}

// drive runs p to quiescence: through Run, or RunUntil in chunks when chunk
// is positive. interleaved instead fires each of those windows through the
// package's interleave, the one (time, region) order on one goroutine,
// with the same barriers and idle accounting: the reference that parallel
// windows must reproduce.
func drive(p *Partitioned, interleaved bool, chunk Time) {
	if !interleaved {
		if chunk <= 0 {
			p.Run()
		}
		for p.Pending() > 0 {
			p.RunUntil(p.Now() + chunk)
		}
		return
	}
	window := func(end Time) {
		before := make([]uint64, len(p.engines))
		for i, e := range p.engines {
			before[i] = e.fired
		}
		p.interleave(end - 1)
		for i, e := range p.engines {
			e.now = max(e.now, end)
			if e.fired == before[i] {
				p.idleWindows[i]++
			}
		}
		p.windowStart = end
		p.mergeOutboxes()
		p.barriers++
	}
	for p.Pending() > 0 {
		if chunk <= 0 {
			window(p.windowStart + p.lookahead)
			continue
		}
		t := p.Now() + chunk
		for p.windowStart < t {
			window(min(p.windowStart+p.lookahead, t))
		}
		p.runBoundary(t)
	}
}

// TestPartitionedWorkerCountInvariance is the core tentpole property: the
// same program, same regions, same drive schedule must produce bit-identical
// results whether the regions are multiplexed onto 1, 2, or R workers, or
// run in the package's one-goroutine interleave. Randomized across seeds and
// region counts; run under -race in CI so the parallel windows are also
// exercised by the race detector.
func TestPartitionedWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9106))
	for trial := 0; trial < 12; trial++ {
		seed := rng.Int63()
		regions := 2 + rng.Intn(7)
		ref := runRandomProgram(seed, regions, 1, false, 0)
		if len(ref.Logs[0]) == 0 {
			t.Fatalf("trial %d: degenerate program, no events in region 0", trial)
		}
		for _, workers := range []int{2, 4, regions} {
			got := runRandomProgram(seed, regions, workers, false, 0)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d (seed %d, regions %d): workers=%d diverged from workers=1\nref: %+v\ngot: %+v",
					trial, seed, regions, workers, ref, got)
			}
		}
		if got := runRandomProgram(seed, regions, 4, true, 0); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d (seed %d, regions %d): global mode diverged from parallel\nref: %+v\ngot: %+v",
				trial, seed, regions, ref, got)
		}
	}
}

// TestPartitionedRunUntilDriveInvariance checks that driving the same
// program through RunUntil chunks (the machine layer's drive loop) matches
// Run() when the chunk is a multiple of the lookahead, and is internally
// worker-count-invariant for any chunk size.
func TestPartitionedRunUntilDriveInvariance(t *testing.T) {
	const seed, regions = 0x7e57, 5
	ref := runRandomProgram(seed, regions, 1, false, 0)
	for _, chunk := range []Time{750, 3000} { // multiples of L: same windows as Run()
		got := runRandomProgram(seed, regions, 4, false, chunk)
		got.Now, got.Barriers = ref.Now, ref.Barriers // drive loop overshoots Run()'s final clock
		if !reflect.DeepEqual(got.Logs, ref.Logs) || got.Fired != ref.Fired || got.Merged != ref.Merged {
			t.Fatalf("chunk %v diverged from Run(): ref %+v got %+v", chunk, ref, got)
		}
	}
	// Odd chunk sizes shorten windows; execution must still be
	// worker-count-invariant for a fixed drive schedule.
	a := runRandomProgram(seed, regions, 1, false, 1337)
	b := runRandomProgram(seed, regions, 4, false, 1337)
	c := runRandomProgram(seed, regions, 4, true, 1337)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
		t.Fatalf("odd-chunk drive not worker-invariant:\n1w: %+v\n4w: %+v\ninterleaved: %+v", a, b, c)
	}
}

// TestPartitionedSingleRegionMatchesEngine pins the "sequential = 1 region"
// contract: at one region, the partitioned coordinator fires exactly the
// same events in the same order as a plain Engine with the same seed.
func TestPartitionedSingleRegionMatchesEngine(t *testing.T) {
	const seed = int64(0x5eed)
	part := runRandomProgram(seed, 1, 1, false, 0)

	e := NewEngine(seed)
	var log []string
	var next uint64
	var handler func(depth int) func()
	handler = func(depth int) func() {
		return func() {
			id := next
			next++
			log = append(log, fmt.Sprintf("r0@%d #%d d%d", e.Now(), id, depth))
			if depth >= 5 {
				return
			}
			r := e.Rand()
			for j, n := 0, r.Intn(3); j < n; j++ {
				e.After(Time(r.Intn(2500)), handler(depth+1))
			}
		}
	}
	for k := 0; k < 4; k++ {
		e.At(Time(1+389*k), handler(0))
	}
	e.Run()

	if !reflect.DeepEqual(part.Logs[0], log) {
		t.Fatalf("single-region partitioned log diverged from plain engine:\npart: %v\nengine: %v", part.Logs[0], log)
	}
	if part.Fired != e.EventsFired() {
		t.Fatalf("fired count: partitioned %d, engine %d", part.Fired, e.EventsFired())
	}
}

// TestPartitionedEqualTimestampMergeOrder pins the cross-region tie-break:
// messages delivering at the same instant merge in (sentAt, srcRegion,
// srcIndex) order regardless of worker count, and in the interleave.
func TestPartitionedEqualTimestampMergeOrder(t *testing.T) {
	const L = Time(1000)
	run := func(workers int, interleaved bool) []string {
		p := NewPartitioned(1, 4, L, workers)
		var log []string
		note := func(s string) func() { return func() { log = append(log, s) } }
		// All messages deliver to region 3 at t=2100. Region 2 sends
		// earliest (sentAt 5), so it merges first despite the higher
		// region index; regions 0 and 1 send at the same instant (t=10)
		// and order by (srcRegion, srcIndex).
		p.Region(2).At(5, func() { p.Send(2, 3, 2100, runFunc, note("r2#0"), nil, 0) })
		p.Region(0).At(10, func() {
			p.Send(0, 3, 2100, runFunc, note("r0#0"), nil, 0)
			p.Send(0, 3, 2100, runFunc, note("r0#1"), nil, 0)
		})
		p.Region(1).At(10, func() { p.Send(1, 3, 2100, runFunc, note("r1#0"), nil, 0) })
		drive(p, interleaved, 0)
		return log
	}
	want := []string{"r2#0", "r0#0", "r0#1", "r1#0"}
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d merge order %v, want %v", workers, got, want)
		}
	}
	if got := run(4, true); !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaved merge order %v, want %v", got, want)
	}
}

// TestPartitionedLookaheadViolationPanics pins the Send precondition: a
// delivery before the end of the current window is a programming error.
func TestPartitionedLookaheadViolationPanics(t *testing.T) {
	p := NewPartitioned(1, 2, 1000, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below the lookahead floor did not panic")
		}
	}()
	p.Send(0, 1, 999, runFunc, func() {}, nil, 0)
}

// TestPartitionedRunUntilContract mirrors Engine.RunUntil: events at
// exactly t fire, later events stay queued, and every region clock lands
// on t.
func TestPartitionedRunUntilContract(t *testing.T) {
	p := NewPartitioned(1, 3, 500, 1) // one worker: `fired` is shared
	var fired []string
	mark := func(s string) func() { return func() { fired = append(fired, s) } }
	p.Region(0).At(999, mark("a@999"))
	p.Region(1).At(1000, mark("b@1000"))
	p.Region(2).At(1001, mark("c@1001"))
	p.RunUntil(1000)
	if want := []string{"a@999", "b@1000"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("RunUntil(1000) fired %v, want %v", fired, want)
	}
	for i := 0; i < 3; i++ {
		if now := p.Region(i).Now(); now != 1000 {
			t.Fatalf("region %d clock %v after RunUntil(1000)", i, now)
		}
	}
	if p.Pending() != 1 {
		t.Fatalf("pending %d after RunUntil(1000), want 1", p.Pending())
	}
	p.RunUntil(1001)
	if want := []string{"a@999", "b@1000", "c@1001"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("after RunUntil(1001) fired %v, want %v", fired, want)
	}
}
