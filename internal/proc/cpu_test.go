package proc

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

func newCPU(t *testing.T) (*sim.Engine, *CPU, *magic.Controller) {
	t.Helper()
	e := sim.NewEngine(1)
	topo := topology.NewMesh(2, 1)
	net := interconnect.New(e, topo, interconnect.DefaultConfig())
	space := coherence.AddrSpace{Nodes: 2, MemBytes: 64 << 10}
	var ctrls []*magic.Controller
	for i := 0; i < 2; i++ {
		ctrls = append(ctrls, magic.New(e, net, i, space,
			coherence.NewDirectory(2),
			coherence.NewMemory(space.Base(i), space.MemBytes),
			coherence.NewCache(64*128), magic.DefaultConfig()))
	}
	return e, New(e, ctrls[0], 2), ctrls[0]
}

func TestWindowLimitsInflight(t *testing.T) {
	e, cpu, _ := newCPU(t)
	done := 0
	for i := 0; i < 6; i++ {
		cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(i * 128), Done: func(magic.Result) { done++ }})
	}
	if cpu.Inflight() != 2 {
		t.Fatalf("inflight = %d, want window of 2", cpu.Inflight())
	}
	if cpu.QueueLen() != 4 {
		t.Fatalf("queued = %d, want 4", cpu.QueueLen())
	}
	e.Run()
	if done != 6 {
		t.Fatalf("done = %d, want 6", done)
	}
	if cpu.Inflight() != 0 || cpu.QueueLen() != 0 {
		t.Fatalf("after the run: inflight=%d queued=%d", cpu.Inflight(), cpu.QueueLen())
	}
}

func TestPauseStopsIssue(t *testing.T) {
	e, cpu, _ := newCPU(t)
	cpu.Pause()
	done := 0
	cpu.Submit(Op{Kind: OpRead, Addr: 0, Done: func(magic.Result) { done++ }})
	e.Run()
	if done != 0 || cpu.Inflight() != 0 || cpu.QueueLen() != 1 {
		t.Fatalf("paused CPU issued work: done=%d inflight=%d queue=%d",
			done, cpu.Inflight(), cpu.QueueLen())
	}
	if !cpu.Paused() {
		t.Fatal("Paused() wrong")
	}
	cpu.Resume()
	e.Run()
	if done != 1 {
		t.Fatalf("done after resume = %d", done)
	}
}

func TestWriteAndReadExclusive(t *testing.T) {
	e, cpu, ctrl := newCPU(t)
	var res magic.Result
	cpu.Submit(Op{Kind: OpWrite, Addr: 0x100, Token: 42, Done: func(r magic.Result) { res = r }})
	e.Run()
	if res.Err != nil || res.Token != 42 {
		t.Fatalf("write: %+v", res)
	}
	l := ctrl.Cache.Lookup(0x100)
	if l == nil || l.State != coherence.CacheExclusive || l.Token != 42 {
		t.Fatalf("cache line: %+v", l)
	}
	cpu.Submit(Op{Kind: OpReadExclusive, Addr: 0x200, Done: func(r magic.Result) { res = r }})
	e.Run()
	if res.Err != nil {
		t.Fatalf("read exclusive: %+v", res)
	}
	if ctrl.Cache.Lookup(0x200).State != coherence.CacheExclusive {
		t.Fatal("line not exclusive")
	}
}

func TestBusErrorCounted(t *testing.T) {
	e, cpu, ctrl := newCPU(t)
	ctrl.SetNodeUp(1, false)
	var got []error
	cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(64 << 10), Done: func(r magic.Result) { got = append(got, r.Err) }})
	e.Run()
	if len(got) != 1 || got[0] != magic.ErrBusError {
		t.Fatalf("completions = %v, want one bus error", got)
	}
}

func TestSpeculateDiscardsResult(t *testing.T) {
	e, cpu, ctrl := newCPU(t)
	cpu.Speculate(0x300)
	e.Run()
	// The wrong-path fetch still pulled the line exclusive — the §3.3
	// hazard the firewall exists to contain.
	l := ctrl.Cache.Lookup(0x300)
	if l == nil || l.State != coherence.CacheExclusive {
		t.Fatal("speculative fetch should install the line exclusive")
	}
}

func TestAbortedCounted(t *testing.T) {
	e, cpu, ctrl := newCPU(t)
	var got []error
	// A remote read that will be aborted by recovery entry.
	cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(64<<10) + 0x80, Done: func(r magic.Result) { got = append(got, r.Err) }})
	e.RunUntil(10) // issued, not yet complete
	ctrl.EnterRecovery()
	e.RunUntil(e.Now() + sim.Millisecond)
	if len(got) != 1 || got[0] != magic.ErrAborted {
		t.Fatalf("completions = %v, want one abort", got)
	}
}

// One bound DoneAt completes every operation of a sweep, in issue order,
// with the operation's own address — including operations resubmitted from
// inside the completion, which go to the tail. The sweep-sized queue is
// released once a completion drains it; a steady trickle keeps its array.
func TestDoneAtSweepOrderAndQueueRelease(t *testing.T) {
	e, cpu, _ := newCPU(t)
	const n = 4 * queueKeep
	var got []coherence.Addr
	resubmitted := false
	var done func(coherence.Addr, magic.Result)
	done = func(a coherence.Addr, r magic.Result) {
		if r.Err != nil {
			t.Errorf("read %v: %v", a, r.Err)
		}
		got = append(got, a)
		if a == 0 && !resubmitted {
			resubmitted = true
			cpu.Submit(Op{Kind: OpRead, Addr: n * 128, DoneAt: done})
		}
	}
	for i := 0; i < n; i++ {
		cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(i * 128), DoneAt: done})
	}
	if cpu.QueueLen() != n-cpu.Window {
		t.Fatalf("queued = %d, want %d", cpu.QueueLen(), n-cpu.Window)
	}
	e.Run()
	if len(got) != n+1 {
		t.Fatalf("completed %d operations, want %d", len(got), n+1)
	}
	for i, a := range got {
		if a != coherence.Addr(i*128) {
			t.Fatalf("completion %d was for %v, want issue order", i, a)
		}
	}
	if cpu.QueueLen() != 0 || cap(cpu.queue) != 0 {
		t.Fatalf("drained sweep queue still holds %d ops in a %d-op array", cpu.QueueLen(), cap(cpu.queue))
	}
	for i := 0; i < 3*queueKeep; i++ {
		cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(i * 128)})
		e.Run()
	}
	if c := cap(cpu.queue); c == 0 || c > queueKeep {
		t.Fatalf("steady one-at-a-time stream left a %d-op queue array, want a small kept one", c)
	}
}

// A read range issues and completes exactly as the same reads submitted one
// by one: same addresses, same order, same simulated times. A read
// resubmitted from a completion — the verify sweep's answer to an aborted
// read — queues behind every read of every range still waiting.
func TestSubmitReadsMatchesPerLineSubmits(t *testing.T) {
	type completion struct {
		addr coherence.Addr
		at   sim.Time
	}
	const lines, step = 40, 3 * 128
	run := func(ranged bool) []completion {
		e, cpu, _ := newCPU(t)
		var got []completion
		resubmitted := false
		var done func(coherence.Addr, magic.Result)
		done = func(a coherence.Addr, r magic.Result) {
			if r.Err != nil {
				t.Errorf("read %v: %v", a, r.Err)
			}
			got = append(got, completion{a, e.Now()})
			if a == step && !resubmitted {
				resubmitted = true
				cpu.Submit(Op{Kind: OpRead, Addr: a, DoneAt: done})
			}
		}
		// One range on each node's memory, the remote one second.
		for _, base := range []coherence.Addr{0, 64 << 10} {
			if ranged {
				cpu.SubmitReads(base, lines, step, done)
				continue
			}
			for i := 0; i < lines; i++ {
				cpu.Submit(Op{Kind: OpRead, Addr: base + coherence.Addr(i*step), DoneAt: done})
			}
		}
		if q := cpu.QueueLen(); q != 2*lines-cpu.Window {
			t.Fatalf("ranged %v: %d reads queued, want %d", ranged, q, 2*lines-cpu.Window)
		}
		e.Run()
		return got
	}
	perLine, ranged := run(false), run(true)
	if len(ranged) != 2*lines+1 {
		t.Fatalf("%d completions, want %d", len(ranged), 2*lines+1)
	}
	if !slices.Equal(perLine, ranged) {
		t.Fatalf("a range completes differently from per-line submits:\nper-line %v\nranged   %v", perLine, ranged)
	}
	if last := ranged[len(ranged)-1]; last.addr != step {
		t.Fatalf("last completion is %v, want the resubmitted read of %v behind both ranges", last.addr, coherence.Addr(step))
	}
}

// A fill builds every node's operations up front, one slice per node that
// its CPU takes whole, so an Op that grows costs every one the difference.
func TestOpStaysFortyBytes(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 40 {
		t.Fatalf("proc.Op is %d bytes, want 40", n)
	}
}

// SubmitAll issues and completes a block exactly as the same operations
// submitted one at a time: the same completions, in the same order, at the
// same simulated times, with the same queue and window behind each. It does
// so on an idle CPU, on one already busy with earlier submits, with a
// submit from a completion (which queues behind the whole block), and with
// a pause and a resume in the middle of the block. A drained CPU keeps no
// queue array, and an idle one takes the block itself, with no copy.
func TestSubmitAllMatchesSubmits(t *testing.T) {
	type step struct {
		addr             coherence.Addr
		at               sim.Time
		queued, inflight int
	}
	const n, resubmitted = 40, coherence.Addr(0x4000)
	for _, tc := range []struct {
		name            string
		before          int  // plain submits ahead of the block
		resubmit, pause bool // from the first, the tenth completion
	}{
		{name: "idle"},
		{name: "busy", before: 5},
		{name: "resubmit", resubmit: true},
		{name: "pause", pause: true},
	} {
		run := func(all bool) []step {
			e, cpu, _ := newCPU(t)
			var got []step
			var done func(coherence.Addr, magic.Result)
			done = func(a coherence.Addr, r magic.Result) {
				if r.Err != nil {
					t.Errorf("%s: op on %v: %v", tc.name, a, r.Err)
				}
				got = append(got, step{a, e.Now(), cpu.QueueLen(), cpu.Inflight()})
				if tc.resubmit && len(got) == 1 {
					cpu.Submit(Op{Kind: OpRead, Addr: resubmitted, DoneAt: done})
				}
				if tc.pause && len(got) == 10 {
					cpu.Pause()
					e.After(5*sim.Microsecond, cpu.Resume)
				}
			}
			for i := 0; i < tc.before; i++ {
				cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(0x8000 + i*128), DoneAt: done})
			}
			// Both nodes' memory, every kind, repeated lines: misses,
			// hits, upgrades and merges into an outstanding miss.
			ops := make([]Op, n)
			for i := range ops {
				addr := coherence.Addr(i%2)*(64<<10) + coherence.Addr(i%7)*128
				ops[i] = Op{Kind: OpKind(i % 3), Addr: addr, Token: uint64(i + 1), DoneAt: done}
			}
			if !all {
				for _, op := range ops {
					cpu.Submit(op)
				}
			} else {
				cpu.SubmitAll(ops)
				if tc.before == 0 && unsafe.SliceData(cpu.queue) != unsafe.SliceData(ops) {
					t.Errorf("%s: an idle CPU copied the block", tc.name)
				}
			}
			e.Run()
			if all && cap(cpu.queue) != 0 {
				t.Errorf("%s: drained CPU still holds a %d-op queue array", tc.name, cap(cpu.queue))
			}
			return got
		}
		submits, all := run(false), run(true)
		want := n + tc.before
		if tc.resubmit {
			want++
		}
		if len(all) != want {
			t.Fatalf("%s: %d completions, want %d", tc.name, len(all), want)
		}
		if !slices.Equal(submits, all) {
			t.Fatalf("%s: SubmitAll differs from Submit calls:\nsubmits %v\nblock   %v", tc.name, submits, all)
		}
		if tc.resubmit && all[len(all)-1].addr != resubmitted {
			t.Fatalf("%s: the resubmitted read completed at %v, not behind the block", tc.name, all[len(all)-1])
		}
	}
}

// A CPU mints its operation records one Window at a time, in one block, and
// binds each record's completion there: a steady stream deeper than the
// window reuses the one block. A wider window mints one more block, and the
// free list, grown with it, takes every record back without growing again.
func TestOpRecordsMintedOneWindowAtATime(t *testing.T) {
	e, cpu, _ := newCPU(t)
	submit := func(n int) {
		for i := 0; i < n; i++ {
			cpu.Submit(Op{Kind: OpRead, Addr: coherence.Addr(i%2)*(64<<10) + coherence.Addr(i)*128})
		}
	}
	submit(16)
	e.Run()
	if len(cpu.freeRecs) != cpu.Window {
		t.Fatalf("%d records after 16 operations through a window of %d, want one block of %d", len(cpu.freeRecs), cpu.Window, cpu.Window)
	}
	recs := slices.Clone(cpu.freeRecs)
	slices.SortFunc(recs, func(a, b *opRecord) int {
		return cmp.Compare(uintptr(unsafe.Pointer(a)), uintptr(unsafe.Pointer(b)))
	})
	for i := 1; i < len(recs); i++ {
		if uintptr(unsafe.Pointer(recs[i]))-uintptr(unsafe.Pointer(recs[i-1])) != unsafe.Sizeof(opRecord{}) {
			t.Fatal("the window's records are not one block")
		}
	}
	for _, r := range recs {
		if r.done == nil || r.cpu != cpu {
			t.Fatal("a record of the block was not bound when it was minted")
		}
	}

	// The old block's 2 records issue first; the third op mints 6 more.
	cpu.Window = 6
	submit(32)
	if cpu.Inflight() != 6 || len(cpu.freeRecs) != 2 {
		t.Fatalf("inflight %d with %d free records, want the window of 6 and 2 of the new block", cpu.Inflight(), len(cpu.freeRecs))
	}
	grown := cap(cpu.freeRecs)
	if grown < 2+6 {
		t.Fatalf("free list cap %d after a second block, want room for all %d records", grown, 2+6)
	}
	e.Run()
	if len(cpu.freeRecs) != 2+6 || cap(cpu.freeRecs) != grown {
		t.Fatalf("free list holds %d of cap %d after the run, want 8 of cap %d", len(cpu.freeRecs), cap(cpu.freeRecs), grown)
	}
}
