package sim

import "testing"

// The timer pool recycles event records across firings, and AfterCall takes
// pointer-shaped arguments precisely so that the schedule→fire→release cycle
// touches the heap zero times in steady state. testing.AllocsPerRun makes
// that a failing benchmark, not a trend to eyeball: any regression (a
// closure sneaking back in, a pool leak, a drain-buffer reallocation) trips
// the guard immediately.

func BenchmarkTimerPoolPath(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the pool and the wheel-slot/drain capacities.
	for i := 0; i < 256; i++ {
		e.After(Time(i%7)*10, fn)
		e.RunUntil(e.Now() + 100)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.After(100, fn)
		e.RunUntil(e.Now() + 200)
	}); allocs != 0 {
		b.Fatalf("timer pool path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(100, fn)
		e.RunUntil(e.Now() + 200)
	}
}

func BenchmarkTimerPoolCallPath(b *testing.B) {
	e := NewEngine(1)
	var fired uint64
	cb := Callback(func(a1, a2 any, u uint64) { fired += u })
	arg := &struct{ x int }{}
	for i := 0; i < 256; i++ {
		e.AfterCall(Time(i%7)*10, cb, arg, nil, 1)
		e.RunUntil(e.Now() + 100)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.AfterCall(100, cb, arg, nil, 1)
		e.RunUntil(e.Now() + 200)
	}); allocs != 0 {
		b.Fatalf("AfterCall path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(100, cb, arg, nil, 1)
		e.RunUntil(e.Now() + 200)
	}
	if fired == 0 {
		b.Fatal("callback never ran")
	}
}

// Cancelling a pooled timer must also be free: Timer is a value, and Cancel
// only flips a flag on the still-resident record.
func BenchmarkTimerCancelPath(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		tm := e.After(50, fn)
		tm.Cancel()
		e.RunUntil(e.Now() + 100)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tm := e.After(50, fn)
		tm.Cancel()
		e.RunUntil(e.Now() + 100)
	}); allocs != 0 {
		b.Fatalf("timer cancel path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(50, fn)
		tm.Cancel()
		e.RunUntil(e.Now() + 100)
	}
}

// One level-0 slot of 2048 events on 24 timestamps, scheduled in order: the
// shape the 1024-node fill and the 128-node recovery drain all day. The
// slot is loaded by loadDrain's counting sort; ns/op covers scheduling,
// the load and the firing of all 2048.
func BenchmarkBigSlotDrain(b *testing.B) {
	e := NewEngine(1)
	var fired uint64
	cb := Callback(func(_, _ any, u uint64) { fired += u })
	round := func() {
		base := e.Now() + 128
		for i := 0; i < 2048; i++ {
			e.AtCall(base+Time(i*7%24), cb, nil, nil, 1)
		}
		e.RunUntil(base + 64)
	}
	for i := 0; i < numSlots; i++ {
		round() // warm the pool, the drain run and every slot the rounds rotate through
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	if fired != uint64(b.N+numSlots)*2048 {
		b.Fatalf("fired %d events, want %d", fired, (b.N+numSlots)*2048)
	}
}
