package sim

import (
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{320, "320ns"},
		{Microsecond + 500, "1.500us"},
		{Millisecond, "1.000ms"},
		{150 * Millisecond, "150.000ms"},
		// Mixed-unit values >= 1s must print in seconds, not a huge
		// millisecond count (regression: 2.5s rendered as "2500.000ms").
		{2*Second + 500*Millisecond, "2.5s"},
		{Second + Millisecond, "1.001s"},
		{1500 * Millisecond, "1.5s"},
		{10*Second + 250*Millisecond, "10.25s"},
		{2 * Second, "2s"},
		// Negatives mirror their positive counterparts through the cascade.
		{-320, "-320ns"},
		{-(Microsecond + 500), "-1.500us"},
		{-150 * Millisecond, "-150.000ms"},
		{-(2*Second + 500*Millisecond), "-2.5s"},
		{-3 * Second, "-3s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestAfterOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(10, func() { order = append(order, 1) })
	e.After(5, func() { order = append(order, 0) })
	e.After(10, func() { order = append(order, 2) }) // same time: FIFO
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.After(7, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	want := []Time{0, 7, 14, 21, 28}
	for i, w := range want {
		if ticks[i] != w {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.After(10, func() { fired++ })
	e.After(20, func() { fired++ })
	e.After(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(10, func() {})
	e.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 0; i < 10; i++ {
		e.After(Time(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	// Run can be resumed after Stop.
	e.Run()
	if n != 10 {
		t.Fatalf("after resume n = %d, want 10", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var log []Time
		for i := 0; i < 100; i++ {
			d := Time(e.Rand().Intn(1000))
			e.After(d, func() { log = append(log, e.Now()) })
		}
		e.Run()
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPending(t *testing.T) {
	e := NewEngine(1)
	t1 := e.After(10, func() {})
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	t1.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestCancelCompactsHeap(t *testing.T) {
	e := NewEngine(1)
	var timers []Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.After(Time(i+1), func() {}))
	}
	// Cancel all but a handful; the heap must shrink rather than retain
	// the dead entries until their timestamps come up.
	for i, tm := range timers {
		if i%100 != 0 {
			tm.Cancel()
		}
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	if n := e.total; n >= 500 {
		t.Fatalf("queue holds %d resident events after mass cancel, want compacted", n)
	}
	if e.Compactions() == 0 {
		t.Fatal("Compactions() = 0 after a mass cancel that shrank the heap")
	}
	// Cancelling a compacted-away timer again stays a no-op.
	if timers[1].Cancel() {
		t.Fatal("re-cancel of compacted timer reported true")
	}
	e.Run()
	if fired := int(e.EventsFired()); fired != 10 {
		t.Fatalf("fired = %d, want the 10 surviving events", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
}

// An engine mints its event records a block at a time: a peak of N live
// events costs ⌈N/eventBlock⌉ blocks and a few geometric growths of the free
// list, not N records, and once the peak has been reached a schedule-and-fire
// loop allocates nothing, release included. A record goes back to its block
// and is handed out again; a Timer left over from its previous tenancy must
// not cancel the next one.
func TestEventRecordsMintedInBlocks(t *testing.T) {
	if size := unsafe.Sizeof(event{}); eventBlock*int(size)+8 > 2<<10 {
		t.Fatalf("a block of %d %d-byte records overflows its 2 KiB size class", eventBlock, size)
	}
	const n = 10*eventBlock + 1
	const l1 = Time(1) << (baseShift + slotBits) // upper-level slots take no array
	cb := Callback(func(any, any, uint64) {})
	e := NewEngine(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		e.AtCall(l1+Time(i), cb, nil, nil, 0)
	}
	runtime.ReadMemStats(&after)
	blocks := (n + eventBlock - 1) / eventBlock
	if got, most := after.Mallocs-before.Mallocs, uint64(blocks+bits.Len(uint(blocks))+1); got > most && !raceEnabled {
		t.Fatalf("%d live events cost %d allocations, want at most %d (%d blocks and the free list's growth)", n, got, most, blocks)
	}
	if minted := e.total + len(e.free); minted != blocks*eventBlock {
		t.Fatalf("engine minted %d records for a peak of %d, want %d blocks of %d", minted, n, blocks, eventBlock)
	}
	freeCap := cap(e.free)
	e.Run()
	if len(e.free) != blocks*eventBlock || cap(e.free) != freeCap {
		t.Fatalf("free list holds %d of cap %d after the run, want %d of cap %d: release regrew it",
			len(e.free), cap(e.free), blocks*eventBlock, freeCap)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < n; i++ {
			e.AfterCall(l1+Time(i), cb, nil, nil, 0)
		}
		e.Run()
	}); allocs != 0 {
		t.Fatalf("a schedule-and-fire loop under the peak allocates %.1f times, want 0", allocs)
	}

	// Every record of a block is reissued after it fired; none of the old
	// Timers reaches its record's next tenant.
	var stale []Timer
	for i := 0; i < eventBlock; i++ {
		stale = append(stale, e.AfterCall(1, cb, nil, nil, 0))
	}
	e.Run()
	fired := 0
	count := Callback(func(any, any, uint64) { fired++ })
	reissued := map[*event]bool{}
	for i := 0; i < eventBlock; i++ {
		reissued[e.AfterCall(1, count, nil, nil, 0).ev] = true
	}
	for _, tm := range stale {
		if !reissued[tm.ev] {
			t.Fatal("a fired record was not handed out again before a fresh one")
		}
		if tm.Cancel() {
			t.Fatal("a stale Timer cancelled its record's next tenant")
		}
	}
	e.Run()
	if fired != eventBlock {
		t.Fatalf("%d of %d reissued events fired, want all", fired, eventBlock)
	}
}

func TestCompactionPreservesFiringOrder(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	var timers []Timer
	for i := 0; i < 256; i++ {
		at := Time((i * 37) % 251)
		timers = append(timers, e.At(at, func() { fired = append(fired, at) }))
	}
	for i, tm := range timers {
		if i%4 != 0 {
			tm.Cancel()
		}
	}
	e.Run()
	if len(fired) != 64 {
		t.Fatalf("fired %d events, want 64", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order after compaction: %v", fired)
		}
	}
}

func TestPendingTracksScheduleFireCancel(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	tm := e.After(10, func() { e.After(5, func() {}) })
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(12) // fires tm's callback, which schedules one more
	if e.Pending() != 2 {
		t.Fatalf("Pending after partial run = %d, want 2", e.Pending())
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire must report false")
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// insertion order.
func TestQuickMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		for _, d := range delays {
			e.After(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil never executes an event scheduled after the limit.
func TestQuickRunUntilBound(t *testing.T) {
	f := func(delays []uint16, limit uint16) bool {
		e := NewEngine(7)
		ok := true
		for _, d := range delays {
			d := d
			e.After(Time(d), func() {
				if Time(d) > Time(limit) {
					ok = false
				}
			})
		}
		e.RunUntil(Time(limit))
		return ok && e.Now() == Time(limit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
