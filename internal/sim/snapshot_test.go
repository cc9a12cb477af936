package sim

import (
	"math/rand"
	"testing"
)

// The countingSource wrapper must be invisible: the engine's random stream
// has pinned goldens downstream, so wrapping the stdlib source may not
// perturb a single draw, whatever mix of Rand methods consumes it.
func TestCountingSourceStreamIdentity(t *testing.T) {
	e := NewEngine(42)
	raw := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if g, w := e.Rand().Int63n(1<<40), raw.Int63n(1<<40); g != w {
				t.Fatalf("draw %d: Int63n %d != %d", i, g, w)
			}
		case 1:
			if g, w := e.Rand().Uint64(), raw.Uint64(); g != w {
				t.Fatalf("draw %d: Uint64 %d != %d", i, g, w)
			}
		case 2:
			if g, w := e.Rand().Float64(), raw.Float64(); g != w {
				t.Fatalf("draw %d: Float64 %v != %v", i, g, w)
			}
		case 3:
			if g, w := e.Rand().Intn(97), raw.Intn(97); g != w {
				t.Fatalf("draw %d: Intn %d != %d", i, g, w)
			}
		}
	}
}

// A fork's random stream must resume exactly where the source's stream
// stood at snapshot time, for any mix of draw kinds before the snapshot.
func TestSnapshotRNGFastForward(t *testing.T) {
	e := NewEngine(7)
	for i := 0; i < 257; i++ {
		switch i % 3 {
		case 0:
			e.Rand().Int63n(1000)
		case 1:
			e.Rand().Float64()
		case 2:
			e.Rand().Uint64()
		}
	}
	f := NewEngineFromSnapshot(e.Snapshot())
	for i := 0; i < 100; i++ {
		if g, w := f.Rand().Uint64(), e.Rand().Uint64(); g != w {
			t.Fatalf("post-fork draw %d: %d != %d", i, g, w)
		}
	}
}

// exercise runs a deterministic scheduling script on an engine: a chain of
// events that re-schedule, cancel timers and consume the random stream. Each
// round stops a second on, leaving its cancelled timeouts resident for a
// later compaction or a snapshot to purge, among them one an hour ahead that
// waits in the wheel's slot for events beyond its window.
func exercise(e *Engine, rounds int) {
	for r := 0; r < rounds; r++ {
		var cancels []Timer
		for i := 0; i < 100; i++ {
			d := Time(e.Rand().Int63n(int64(Millisecond)))
			tm := e.After(d, func() {})
			if i%3 == 0 {
				cancels = append(cancels, tm)
			}
		}
		// Far-future timeouts that are always cancelled, like protocol
		// timers.
		for i := 0; i < 20; i++ {
			cancels = append(cancels, e.After(2*Second+Time(i), func() {}))
		}
		cancels = append(cancels, e.After(3600*Second, func() {}))
		for _, tm := range cancels {
			tm.Cancel()
		}
		e.RunUntil(e.Now() + Second)
	}
}

// Continuing the source engine after a snapshot and continuing a fork must
// produce identical clocks, counters, and random streams: the snapshot may
// not disturb the source, and the fork may not diverge from it.
func TestSnapshotForkContinuesIdentically(t *testing.T) {
	e := NewEngine(99)
	exercise(e, 3)
	if e.Pending() != 0 {
		t.Fatalf("exercise left %d live events", e.Pending())
	}
	if beyondWindow(e) == 0 {
		t.Fatal("no cancelled timeout waits beyond the window for the snapshot to purge")
	}
	f := NewEngineFromSnapshot(e.Snapshot())

	if f.Now() != e.Now() || f.EventsFired() != e.EventsFired() || f.Compactions() != e.Compactions() {
		t.Fatalf("fork state %v/%d/%d != source %v/%d/%d",
			f.Now(), f.EventsFired(), f.Compactions(), e.Now(), e.EventsFired(), e.Compactions())
	}
	exercise(e, 3)
	exercise(f, 3)
	if f.Now() != e.Now() {
		t.Fatalf("clocks diverged: fork %v, source %v", f.Now(), e.Now())
	}
	if f.EventsFired() != e.EventsFired() {
		t.Fatalf("fired diverged: fork %d, source %d", f.EventsFired(), e.EventsFired())
	}
	if f.Compactions() != e.Compactions() {
		t.Fatalf("compactions diverged: fork %d, source %d", f.Compactions(), e.Compactions())
	}
	if f.seq != e.seq {
		t.Fatalf("seq diverged: fork %d, source %d", f.seq, e.seq)
	}
	if g, w := f.Rand().Uint64(), e.Rand().Uint64(); g != w {
		t.Fatalf("rng diverged: fork %d, source %d", g, w)
	}
}

func TestSnapshotPanicsWhenLive(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot on a non-quiescent engine did not panic")
		}
	}()
	e.Snapshot()
}
