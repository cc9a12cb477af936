package experiments

import (
	"runtime"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/interconnect"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/runner"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
	"flashfc/internal/workload"
)

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A coherence transaction — MSHR, request packet, home handler, directory,
// reply packet, install, retire — runs on pooled records and chunk-carved
// state, so its amortised allocation count stays below one. These guards
// keep it there: a per-message, per-MSHR or per-line allocation creeping
// back in costs at least one each and fails them outright.

// A remote read miss on a 2-node machine: two wire records and one MSHR
// per round trip, all recycled; what is left is the directory and cache
// chunks and their maps' growth.
func TestRemoteReadAllocs(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.MemBytes = 256 << 10
	cfg.L2Bytes = 64 << 10
	m := machine.New(cfg)
	done := func(r magic.Result) {
		if r.Err != nil {
			t.Errorf("remote read: %v", r.Err)
		}
	}
	next := 0
	reads := func(n int) {
		for i := 0; i < n; i++ {
			a := m.Space.Base(1) + coherence.Addr(next%m.Space.Lines()*128)
			next += 7 // coprime with the line count: every read misses until the lines wrap
			m.Nodes[0].Ctrl.Read(a, done)
			m.E.Run()
		}
	}
	reads(256) // warm the event pool, the wire pool, queues and maps
	const n = 1024
	per := float64(mallocs(func() { reads(n) })) / n
	t.Logf("%.3f allocs per remote read", per)
	if per > 1 {
		t.Fatalf("remote read round trip allocates %.2f allocs, want <= 1", per)
	}
}

// The whole-memory sweep of a warm-forked Table 5.3 machine: one sweep
// object and one queue for all lines, not a closure and a dozen records
// per line. Each answering home's directory carves the entries the sweep
// gives it as one block, already line-indexed, and the reader's cache
// installs its 16 384 lines into the storage of the ones they evict, so
// per line what is left is 0.018 allocations and 57.5 bytes, against
// 0.182 and 91.5 when every home grew its overlay map and 8-entry chunks
// a step at a time and every install carved a line. The bounds sit about
// a quarter above the measured cost.
func TestVerifyMemoryAllocs(t *testing.T) {
	const (
		allocsPerLine = 0.025
		bytesPerLine  = 70
	)
	ws := WarmupValidation(DefaultValidationConfig(), runner.DeriveSeed(1, runner.StreamWarmup, 0))
	machine.FromSnapshot(ws.Snap, nil).VerifyMemory(0, 1) // warm the pools
	m := machine.FromSnapshot(ws.Snap, nil)
	var res *machine.VerifyResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res = m.VerifyMemory(0, 1)
	runtime.ReadMemStats(&after)
	if !res.OK() || res.LinesChecked != 8*2048 {
		t.Fatalf("sweep: %v", res)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.LinesChecked)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.LinesChecked)
	t.Logf("%.3f allocs, %.1f bytes per line checked", per, bytes)
	if raceEnabled {
		// The race detector drops pooled records at random, so only the
		// one-per-line bound of the pooled path holds.
		if per > 1 {
			t.Fatalf("verify sweep allocates %.2f allocs per line checked under -race, want <= 1", per)
		}
		return
	}
	if per > allocsPerLine {
		t.Fatalf("verify sweep allocates %.3f allocs per line checked, want <= %.3f", per, allocsPerLine)
	}
	if bytes > bytesPerLine {
		t.Fatalf("verify sweep allocates %.1f bytes per line checked, want <= %d", bytes, bytesPerLine)
	}
}

// A packet's trip across the fabric — fourteen hops corner to corner on an
// 8×8 mesh — runs on the flat channel array, the queues' inline storage and
// pooled events, and allocates nothing; nor does a hop that blocks and is
// woken. Each round sends six packets at a controller that refuses them, so
// four fill the last channel (its head waiting on the node), the next channel
// back blocks on that one, and opening the controller wakes both lists.
//
// The count is the process-wide one, so it is taken under GOMAXPROCS(1), as
// testing.AllocsPerRun takes it, and is the least of three identical
// batches: an allocation of the hop path recurs in every batch, a stray one
// of the runtime's does not.
func TestPacketHopAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := sim.NewEngine(1)
	topo := topology.NewMesh(8, 8)
	cfg := interconnect.DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	stalls := cfg.Metrics.Counter("interconnect.backpressure_stalls")
	n := interconnect.New(e, topo, cfg)
	open, delivered := false, 0
	n.SetEndpoint(63, interconnect.EndpointFunc(func(*interconnect.Packet) bool {
		if open {
			delivered++
		}
		return open
	}))
	var pkts [6]interconnect.Packet
	round := func() {
		open = false
		for i := range pkts {
			pkts[i] = interconnect.Packet{Src: 0, Dst: 63, Lane: interconnect.LaneRequest, Bytes: 16}
			n.Send(&pkts[i])
		}
		e.Run()
		if n.InFlight() != len(pkts) {
			t.Fatalf("%d packets held behind the refusing controller, want %d", n.InFlight(), len(pkts))
		}
		open = true
		n.NodeReady(63)
		e.Run()
	}
	for i := 0; i < 512; i++ {
		round() // warm the event pool, the wheel's slots, the source queue and the waiter lists
	}
	const rounds, batches = 100, 3
	delivered = 0
	stalled := stalls.Value()
	least := ^uint64(0)
	for b := 0; b < batches; b++ {
		least = min(least, mallocs(func() {
			for i := 0; i < rounds; i++ {
				round()
			}
		}))
	}
	if least != 0 {
		t.Fatalf("%d allocations over %d packet trips in the least of %d batches, want 0", least, rounds*len(pkts), batches)
	}
	if delivered != batches*rounds*len(pkts) || n.InFlight() != 0 {
		t.Fatalf("%d packets delivered, %d in flight; want %d and 0", delivered, n.InFlight(), batches*rounds*len(pkts))
	}
	// One channel blocked on the node and one on that channel, every round.
	if got := stalls.Value() - stalled; got < 2*batches*rounds {
		t.Fatalf("%d blocked hops over %d rounds: the blocked-and-woken path went unexercised", got, batches*rounds)
	}
}

// recoveryAllocsPerPacket and linkRecoveryAllocsPerPacket bound a
// recovery's allocations per recovery packet. Every send takes a record
// from its agent's free list and gets it back once its receiver has
// handled it, P2's inbox holds messages by value, and round snapshots are
// carved from a per-epoch arena, so what is left is per agent and per
// epoch, not per message: the 64-node node failure measures 0.70, the
// 16-node link failure 1.48, and 1.51 in a process whose P4 flush records
// are not yet warm, since those are allocated a block at a time. The
// bounds sit about a quarter of an allocation above: a record, a message
// copy or a closure per send, or a map per round, crosses them.
const (
	recoveryAllocsPerPacket     = 0.95
	linkRecoveryAllocsPerPacket = 1.75
)

// recoveryAllocs runs a recovery of f on a filled nodes-node mesh, from the
// injection — with node from touching node victim's memory to detect it —
// to the last node resuming, and returns its allocations per recovery
// packet.
func recoveryAllocs(t *testing.T, nodes int, f fault.Fault, from, victim int) float64 {
	t.Helper()
	cfg := DefaultScalingConfig(nodes)
	mc := machine.DefaultConfig(cfg.Nodes)
	mc.MemBytes, mc.L2Bytes = cfg.MemBytes, cfg.L2Bytes
	m := machine.New(mc)
	filler := workload.NewFiller(m)
	filler.FillLines = cfg.FillLines
	filled := false
	filler.Start(func() { filled = true })
	for !filled && m.Now() < sim.Second {
		m.Advance(m.Now() + sim.Millisecond)
	}
	if !filled {
		t.Fatal("fill did not finish")
	}
	lanes := []*metrics.Counter{
		m.Metrics.Counter("interconnect.lane.recA.packets"),
		m.Metrics.Counter("interconnect.lane.recB.packets"),
	}
	sent := func() (n uint64) {
		for _, c := range lanes {
			n += c.Value()
		}
		return n
	}
	before := sent()
	recovered := false
	n := mallocs(func() {
		m.Inject(f)
		m.Nodes[from].CPU.Submit(workload.TouchOp(m, victim))
		recovered = m.RunUntilRecovered(cfg.Deadline)
	})
	pkts := sent() - before
	if !recovered || pkts == 0 {
		t.Fatalf("recovered %v after %d recovery packets", recovered, pkts)
	}
	per := float64(n) / float64(pkts)
	t.Logf("%d allocs over %d recovery packets: %.2f per packet", n, pkts, per)
	return per
}

// A node-failure recovery on a 64-node mesh. The recovery is message-bound
// (P2's gossip rounds to every cwn member, barriers up and down the tree),
// and a send allocates nothing once its agent's free list holds records:
// the packet and its message share a recycled record. Charges, probes and
// barrier steps ride pre-bound events, routes and round snapshots are
// carved from per-epoch arenas, and a round whose merge changed nothing
// ships the previous round's snapshot again. A per-packet, per-probe or
// per-charge allocation creeping back in pushes the ratio past the bound.
func TestRecoveryAllocs(t *testing.T) {
	if per := recoveryAllocs(t, 64, fault.Fault{Type: fault.NodeFailure, Node: 32}, 0, 32); per > recoveryAllocsPerPacket {
		t.Fatalf("recovery allocates %.2f per recovery packet, want <= %.2f", per, recoveryAllocsPerPacket)
	}
}

// A link failure in the middle of a 16-node mesh: P1 probes through the
// dead link and waits out its probe timeout, and P3 reprograms the routes
// around it, so probing, ping timeouts and route repair are all on the path
// the guard measures.
func TestLinkRecoveryAllocs(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	link := topo.Adjacency(5)[topo.PortTo(5, 6)].Link
	per := recoveryAllocs(t, 16, fault.Fault{Type: fault.LinkFailure, Link: link}, 5, 6)
	if per > linkRecoveryAllocsPerPacket {
		t.Fatalf("link recovery allocates %.2f per recovery packet, want <= %.2f", per, linkRecoveryAllocsPerPacket)
	}
}

// fillCost runs a fill on m, from start to its last completion, and
// returns the bytes and allocations it cost per fill operation.
func fillCost(t *testing.T, m *machine.Machine, ops int, start func(), done func() bool) (bytes, allocs float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start()
	for !done() && m.Now() < sim.Second {
		m.Advance(m.Now() + sim.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if !done() {
		t.Fatal("fill did not finish")
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// Per fill operation, the bytes and allocations of a fill from its Start to
// its last completion: the 256-node partitioned fill (48 operations a
// node, a 128-line cache and 512 lines a home, as fill1024's nodes) and
// the 128-node validation fill behind recovery128 (128 a node, 8 192-line
// caches and homes). Each node's program is one exactly sized slice its
// CPU takes whole, and its cache and home directory are sized for the fill
// before it issues, and event records, CPU operation records and MSHRs are
// minted a block at a time, so what is left per operation is its line,
// directory entry and packets: 252.9 bytes and 0.807 allocations on the
// partitioned fill, 226.7 and 0.399 on the validation fill, against 254.6
// and 1.271, 228.5 and 0.572 with a record minted per allocation, and 387.6
// and 1.687, 356.2 and 0.805 when each CPU queue, cache index and home
// overlay grew by appending as well. The bounds sit about 15 % above the
// measured cost, so any one of those growing again crosses them.
func TestFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		partitionBytesPerOp  = 290
		partitionAllocsPerOp = 0.93
		fillerBytesPerOp     = 260
		fillerAllocsPerOp    = 0.46
	)
	t.Run("partition256", func(t *testing.T) {
		pc := DefaultPartitionConfig()
		mc := machine.DefaultConfig(256)
		mc.MemBytes, mc.L2Bytes = pc.MemBytes, pc.L2Bytes
		m := machine.New(mc)
		pf := workload.NewPartitionFill(m)
		pf.OpsPerNode = pc.OpsPerNode
		b, a := fillCost(t, m, 256*pc.OpsPerNode, pf.Start, pf.Done)
		t.Logf("%.1f bytes, %.3f allocations per fill operation", b, a)
		if b > partitionBytesPerOp || a > partitionAllocsPerOp {
			t.Fatalf("partitioned fill costs %.1f bytes and %.3f allocations per operation, want <= %d and %.2f",
				b, a, partitionBytesPerOp, partitionAllocsPerOp)
		}
	})
	t.Run("filler128", func(t *testing.T) {
		sc := DefaultScalingConfig(128)
		mc := machine.DefaultConfig(sc.Nodes)
		mc.MemBytes, mc.L2Bytes = sc.MemBytes, sc.L2Bytes
		m := machine.New(mc)
		f := workload.NewFiller(m)
		f.FillLines = sc.FillLines
		filled := false
		b, a := fillCost(t, m, sc.Nodes*sc.FillLines, func() { f.Start(func() { filled = true }) }, func() bool { return filled })
		t.Logf("%.1f bytes, %.3f allocations per fill operation", b, a)
		if b > fillerBytesPerOp || a > fillerAllocsPerOp {
			t.Fatalf("validation fill costs %.1f bytes and %.3f allocations per operation, want <= %d and %.2f",
				b, a, fillerBytesPerOp, fillerAllocsPerOp)
		}
	})
}
