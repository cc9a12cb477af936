// Package runner is the shared parallel-campaign infrastructure for the
// experiment drivers: a bounded worker pool that maps a function over
// independent run indices with deterministic result ordering, a
// SplitMix64-based seed-derivation scheme that gives every run a
// decorrelated random stream, and per-campaign throughput accounting.
//
// Every experiment in internal/experiments is a loop over fully
// independent, deterministic simulations — each run builds its own
// sim.Engine from an explicit seed, and nothing is shared between runs —
// so executing them concurrently cannot change any simulated outcome: the
// pool only reorders host-side execution. Map and Campaign therefore
// guarantee bit-identical results to the sequential path for any worker
// count, a property the experiments test suite enforces.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Result is the outcome of one run in a campaign.
type Result[T any] struct {
	// Value is the run's return value (the zero T when Err is non-nil).
	Value T
	// Err is non-nil when the run panicked: the campaign keeps going and
	// the recovered panic is reported here as a *PanicError instead of
	// crashing the whole batch.
	Err error
	// Wall is the host wall-clock time the run took.
	Wall time.Duration
	// Events is the simulated-event count the run reported via
	// Recorder.Report (0 if it reported nothing).
	Events uint64
	// Worker is the pool worker that executed the run (0 when sequential).
	// Host-side scheduling detail: varies with worker count, so anything
	// claiming determinism must ignore it (obs.StripHost does).
	Worker int
}

// PanicError wraps a panic recovered from a single run.
type PanicError struct {
	Index int // run index that crashed
	Value any // the value passed to panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run %d panicked: %v", e.Index, e.Value)
}

// Recorder lets a run report its simulation counters to the pool; the
// experiment drivers pass Engine.EventsFired through it so campaigns can
// account aggregate simulated-events/sec throughput.
type Recorder struct {
	events uint64
}

// Report records the run's simulated-event count (last call wins).
func (r *Recorder) Report(events uint64) { r.events = events }

// Workers resolves a parallelism knob for a campaign of `runs` runs:
// 0 (the zero value of every config struct's Workers field) means one
// worker per available CPU, values below zero clamp to 1, and no campaign
// uses more workers than it has runs.
func Workers(requested, runs int) int {
	w := requested
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if runs >= 0 && w > runs {
		w = runs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(0) … fn(n-1) on up to `workers` goroutines (0 = one per CPU)
// and returns the results in index order regardless of scheduling. A panic
// in any run is re-raised in the caller once the pool has drained; use
// Campaign when a crashed run should become a failed result instead.
func Map[T any](n, workers int, fn func(i int) T) []T {
	results, _ := Campaign(n, workers, func(i int, _ *Recorder) T { return fn(i) }, nil)
	out := make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			panic(r.Err.(*PanicError).Value)
		}
		out[i] = r.Value
	}
	return out
}

// Campaign runs fn(0) … fn(n-1) on up to `workers` goroutines and returns
// per-run Results in index order plus aggregate throughput accounting.
// A panicking run is captured into its Result's Err; the rest of the
// campaign is unaffected. observe, when non-nil, is called after each run
// completes — calls are serialized but arrive in completion order, not
// index order.
func Campaign[T any](n, workers int, fn func(i int, rec *Recorder) T, observe func(i int, r Result[T])) ([]Result[T], Stats) {
	return CampaignWithSetup(n, workers, nil, func(i int, _ any, rec *Recorder) T {
		return fn(i, rec)
	}, observe)
}

// CampaignWithSetup is Campaign with per-worker shared state: each worker
// runs setup() lazily before its first run and passes the result to every
// run it executes. RunCampaign passes an experiment's Warmup as setup, so
// each worker builds one machine snapshot and forks every run from it.
//
// The bit-identity guarantee extends to the shared state only if setup is
// deterministic and runs never mutate the state they receive (forking,
// not sharing). A panic in setup is charged to the run that triggered it —
// that run fails like any panicking run — and setup is retried on the
// worker's next run. setup may be nil.
func CampaignWithSetup[T any](n, workers int, setup func() any, fn func(i int, ws any, rec *Recorder) T, observe func(i int, r Result[T])) ([]Result[T], Stats) {
	start := time.Now()
	if n <= 0 {
		return nil, Stats{}
	}
	workers = Workers(workers, n)
	results := make([]Result[T], n)
	setupWall := make([]time.Duration, workers)

	// worker wraps fn with the lazily-built per-worker state; the returned
	// closure is used by exactly one goroutine, so the captured state needs
	// no locking. Setup runs inside runOne's panic isolation and its wall
	// time accrues to the worker's setupWall slot, not to the run — the
	// Stats split that keeps warm-up cost out of run-phase throughput.
	worker := func(w int) func(i int, rec *Recorder) T {
		var ws any
		ready := setup == nil
		return func(i int, rec *Recorder) T {
			if !ready {
				t0 := time.Now()
				ws = setup()
				setupWall[w] += time.Since(t0)
				ready = true
			}
			return fn(i, ws, rec)
		}
	}

	if workers == 1 {
		w := worker(0)
		for i := range results {
			results[i] = runOne(i, w)
			if observe != nil {
				observe(i, results[i])
			}
		}
		return results, summarize(results, time.Since(start), setupWall)
	}

	var next atomic.Int64
	next.Store(-1)
	var mu sync.Mutex // serializes observe
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := worker(w)
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				results[i] = runOne(i, run)
				results[i].Worker = w
				if observe != nil {
					mu.Lock()
					observe(i, results[i])
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return results, summarize(results, time.Since(start), setupWall)
}

// runOne executes a single run with panic isolation.
func runOne[T any](i int, fn func(int, *Recorder) T) (res Result[T]) {
	start := time.Now()
	var rec Recorder
	defer func() {
		res.Wall = time.Since(start)
		res.Events = rec.events
		if p := recover(); p != nil {
			var zero T
			res.Value = zero
			res.Err = &PanicError{Index: i, Value: p}
		}
	}()
	res.Value = fn(i, &rec)
	return
}

// Stats aggregates host-side accounting for one campaign (or, via Merge,
// several).
type Stats struct {
	Runs   int           // completed runs, including panicked ones
	Failed int           // runs that panicked
	Wall   time.Duration // wall clock of the whole campaign
	Work   time.Duration // summed per-run wall clock (≥ Wall when parallel)
	Events uint64        // summed simulated events across runs
	// Setup is the summed per-worker lazy-setup time (warm-snapshot builds)
	// — the CPU view of warm-up cost.
	Setup time.Duration
	// SetupWall is the largest single worker's setup time — the wall view.
	// Workers start setup concurrently at campaign start, so Wall−SetupWall
	// approximates the campaign's run phase; dividing events by raw Wall
	// (EventsPerSec) charges warm-up to the runs and understates fork-phase
	// throughput, which is what RunEventsPerSec corrects.
	SetupWall time.Duration
}

func summarize[T any](results []Result[T], wall time.Duration, setupWall []time.Duration) Stats {
	s := Stats{Runs: len(results), Wall: wall}
	for _, r := range results {
		if r.Err != nil {
			s.Failed++
		}
		s.Work += r.Wall
		s.Events += r.Events
	}
	for _, d := range setupWall {
		s.Setup += d
		if d > s.SetupWall {
			s.SetupWall = d
		}
	}
	return s
}

// Merge folds another campaign's accounting into s; walls add (including
// SetupWall — each campaign pays its own warm-up), so a merged Stats
// describes the campaigns run back to back.
func (s *Stats) Merge(o Stats) {
	s.Runs += o.Runs
	s.Failed += o.Failed
	s.Wall += o.Wall
	s.Work += o.Work
	s.Events += o.Events
	s.Setup += o.Setup
	s.SetupWall += o.SetupWall
}

// EventsPerSec is the campaign's simulated-event throughput against total
// wall time, warm-up included — the headline number parallelism is
// supposed to move.
func (s Stats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Events) / s.Wall.Seconds()
}

// RunEventsPerSec is the run-phase throughput: events against wall time
// with the per-worker lazy setup (warm-snapshot build) excluded. Use this
// when comparing fork-phase cost across warm modes — EventsPerSec charges
// the warm-up to the runs and skews the comparison.
func (s Stats) RunEventsPerSec() float64 {
	run := s.Wall - s.SetupWall
	if run <= 0 {
		return 0
	}
	return float64(s.Events) / run.Seconds()
}

// Speedup reports Work/Wall — how much per-run wall time overlapped.
// On an unloaded multi-core host this approximates the parallel speedup
// over a sequential execution (~1.0 at workers=1); when workers
// oversubscribe the CPUs, per-run walls inflate with time-sharing and the
// ratio overstates the true gain, so benchmark wall clocks (the
// BenchmarkCampaignWorkers* series) are the authoritative comparison.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Wall)
}

// String renders the accounting the CLIs print after a campaign. Campaigns
// with lazy setup get the warm-up split out and the run-phase rate shown
// alongside the headline rate.
func (s Stats) String() string {
	base := fmt.Sprintf("%d runs in %v (cpu %v, %.1fx), %d simulated events, %.2f Mevents/s",
		s.Runs, s.Wall.Round(time.Millisecond), s.Work.Round(time.Millisecond),
		s.Speedup(), s.Events, s.EventsPerSec()/1e6)
	if s.Setup > 0 {
		base += fmt.Sprintf(" (setup %v, run-phase %.2f Mevents/s)",
			s.SetupWall.Round(time.Millisecond), s.RunEventsPerSec()/1e6)
	}
	return base
}
