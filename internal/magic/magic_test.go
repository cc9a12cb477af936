package magic

import (
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/topology"
	"flashfc/internal/trace"
)

// testRig is a small machine: engine, fabric, and one controller per node
// with its own directory/memory/cache. Fabric and controllers report into
// one registry and one tracer, as on a machine.
type testRig struct {
	e     *sim.Engine
	net   *interconnect.Network
	space coherence.AddrSpace
	ctrl  []*Controller
	reg   *metrics.Registry
	tr    *trace.Tracer
}

func newRig(t *testing.T, nodes int, cfg Config) *testRig {
	t.Helper()
	return newRigNet(t, nodes, cfg, interconnect.DefaultConfig())
}

// newRigNet is newRig over a fabric with the given configuration.
func newRigNet(t *testing.T, nodes int, cfg Config, icfg interconnect.Config) *testRig {
	t.Helper()
	e := sim.NewEngine(1)
	var topo *topology.Topology
	switch nodes {
	case 4:
		topo = topology.NewMesh(2, 2)
	case 8:
		topo = topology.NewMesh(4, 2)
	default:
		topo = topology.NewMesh(nodes, 1)
	}
	reg, tr := metrics.NewRegistry(), trace.New()
	icfg.Metrics, icfg.Trace = reg, tr
	cfg.Metrics, cfg.Trace = reg, tr
	net := interconnect.New(e, topo, icfg)
	space := coherence.AddrSpace{Nodes: nodes, MemBytes: 1 << 20}
	r := &testRig{e: e, net: net, space: space, reg: reg, tr: tr}
	for i := 0; i < nodes; i++ {
		dir := coherence.NewDirectory(nodes)
		mem := coherence.NewMemory(space.Base(i), space.MemBytes)
		cache := coherence.NewCache(64 * 128)
		r.ctrl = append(r.ctrl, New(e, net, i, space, dir, mem, cache, cfg))
	}
	return r
}

// points counts the trace points named name recorded at node.
func (r *testRig) points(node int, name string) int {
	c := 0
	for _, p := range r.tr.Points() {
		if p.Node == node && p.Name == name {
			c++
		}
	}
	return c
}

// read performs a blocking-style read and runs the engine to completion.
func (r *testRig) read(t *testing.T, node int, addr coherence.Addr) Result {
	t.Helper()
	var res Result
	done := false
	r.ctrl[node].Read(addr, func(rr Result) { res = rr; done = true })
	r.e.Run()
	if !done {
		t.Fatalf("read(%d, %v) never completed", node, addr)
	}
	return res
}

func (r *testRig) write(t *testing.T, node int, addr coherence.Addr, tok uint64) Result {
	t.Helper()
	var res Result
	done := false
	r.ctrl[node].Write(addr, tok, func(rr Result) { res = rr; done = true })
	r.e.Run()
	if !done {
		t.Fatalf("write(%d, %v) never completed", node, addr)
	}
	return res
}

func TestLocalReadMiss(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	a := coherence.Addr(0x100) // homed on node 0
	res := r.read(t, 0, a)
	if res.Err != nil {
		t.Fatalf("err = %v", res.Err)
	}
	if res.Token != coherence.InitialToken(a) {
		t.Fatalf("token = %x, want initial", res.Token)
	}
	// Second read is a cache hit.
	ev0 := r.e.EventsFired()
	res = r.read(t, 0, a)
	if res.Err != nil || res.Token != coherence.InitialToken(a) {
		t.Fatal("hit read broken")
	}
	if r.e.EventsFired()-ev0 > 3 {
		t.Fatal("hit should not generate protocol traffic")
	}
}

func TestRemoteReadAndWriteThroughDirectory(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	a := r.space.Base(2) + 0x80 // homed on node 2
	if res := r.read(t, 0, a); res.Err != nil || res.Token != coherence.InitialToken(a.Line()) {
		t.Fatalf("remote read broken: %+v", res)
	}
	// Node 1 writes: invalidates node 0's shared copy.
	if res := r.write(t, 1, a, 42); res.Err != nil || res.Token != 42 {
		t.Fatalf("remote write broken: %+v", res)
	}
	if r.ctrl[0].Cache.Lookup(a) != nil {
		t.Fatal("sharer not invalidated")
	}
	e := r.ctrl[2].Dir.Lookup(a)
	if e == nil || e.State != coherence.DirExclusive || e.Owner != 1 {
		t.Fatalf("dir entry = %+v", e)
	}
	// Node 3 reads: recall from node 1, data flows through home.
	if res := r.read(t, 3, a); res.Err != nil || res.Token != 42 {
		t.Fatalf("read after write broken: %+v", res)
	}
	if r.ctrl[1].Cache.Lookup(a) != nil {
		t.Fatal("recalled owner should have dropped the line")
	}
	if r.ctrl[2].Mem.Read(a) != 42 {
		t.Fatal("memory not updated by recall writeback")
	}
}

func TestWriteThenRemoteWrite(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	a := r.space.Base(3) + 0x200
	r.write(t, 0, a, 7)
	if res := r.write(t, 1, a, 8); res.Err != nil || res.Token != 8 {
		t.Fatalf("second write: %+v", res)
	}
	if res := r.read(t, 2, a); res.Token != 8 {
		t.Fatalf("read after two writes = %d, want 8", res.Token)
	}
}

func TestSharedUpgrade(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	a := r.space.Base(1) + 0x300
	r.read(t, 0, a)
	r.read(t, 2, a)
	// Node 0 upgrades its shared copy to exclusive; node 2 is invalidated.
	if res := r.write(t, 0, a, 5); res.Err != nil {
		t.Fatalf("upgrade: %+v", res)
	}
	if r.ctrl[2].Cache.Lookup(a) != nil {
		t.Fatal("other sharer survived upgrade")
	}
	if res := r.read(t, 2, a); res.Token != 5 {
		t.Fatalf("token after upgrade = %d", res.Token)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	// Cache holds 64 lines; write 65 distinct remote lines to force an
	// eviction writeback of the first.
	base := r.space.Base(1)
	for i := 0; i < 65; i++ {
		r.write(t, 0, base+coherence.Addr(i*128), uint64(i+1))
	}
	if got := r.ctrl[0].Cache.Len(); got != 64 {
		t.Fatalf("cache len = %d", got)
	}
	if tok := r.ctrl[1].Mem.Read(base); tok != 1 {
		t.Fatalf("evicted line not written back: mem=%d", tok)
	}
	e := r.ctrl[1].Dir.Lookup(base)
	if e != nil {
		t.Fatalf("dir entry should be released after writeback, got %v", e.State)
	}
	// The line is readable with its written value.
	if res := r.read(t, 1, base); res.Token != 1 {
		t.Fatalf("read of evicted line = %d", res.Token)
	}
}

func TestVectorRemapKeepsReferencesLocal(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 4, cfg)
	for i := range r.ctrl {
		r.ctrl[i].Space.VectorTop = 0x1000
	}
	// A fetch of vector address 0x40 on node 2 must stay node-local even
	// though address 0x40 is nominally homed on node 0 (§3.2).
	res := r.read(t, 2, 0x40)
	if res.Err != nil {
		t.Fatalf("vector read: %v", res.Err)
	}
	want := r.space.Base(2) + 0x40
	if r.ctrl[2].Cache.Lookup(want) == nil {
		t.Fatal("vector line should be cached at its remapped local address")
	}
	if r.ctrl[0].Dir.Lookup(0x40) != nil {
		t.Fatal("remapped reference must not touch node 0")
	}
}

func TestNodeMapBusErrorsRequestsToDeadHomes(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	r.ctrl[0].SetNodeUp(3, false)
	res := r.read(t, 0, r.space.Base(3))
	if res.Err != ErrBusError {
		t.Fatalf("err = %v, want bus error", res.Err)
	}
	// The node map refuses the request locally: nothing enters the fabric.
	if got := r.points(0, "inject"); got != 0 {
		t.Fatalf("request to a dead home injected %d packets", got)
	}
}

func TestIncoherentLineBusErrors(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	a := r.space.Base(1) + 0x80
	e := r.ctrl[1].Dir.Get(a)
	e.State = coherence.DirIncoherent
	if res := r.read(t, 0, a); res.Err != ErrBusError {
		t.Fatalf("read of incoherent line: %+v", res)
	}
	if res := r.write(t, 2, a, 1); res.Err != ErrBusError {
		t.Fatalf("write of incoherent line: %+v", res)
	}
	// Scrub clears it (§4.6).
	if n := r.ctrl[1].ScrubPage(a); n != 1 {
		t.Fatalf("scrubbed %d lines, want 1", n)
	}
	if res := r.read(t, 0, a); res.Err != nil {
		t.Fatalf("read after scrub: %v", res.Err)
	}
}

func TestFirewallDeniesRemoteExclusive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FirewallEnabled = true
	r := newRig(t, 4, cfg)
	units := []int{0, 0, 1, 1}
	for _, c := range r.ctrl {
		c.SetFailureUnits(units)
	}
	page := r.space.Base(0) // kernel page of node 0's cell
	writers := coherence.NewNodeSet(4)
	writers.Add(0)
	writers.Add(1)
	r.ctrl[0].SetFirewall(page, writers)

	// Reads from anywhere are fine.
	if res := r.read(t, 3, page+0x80); res.Err != nil {
		t.Fatalf("firewalled read should succeed: %v", res.Err)
	}
	// Writes from outside the ACL are bus-errored (§3.3).
	if res := r.write(t, 3, page+0x80, 9); res.Err != ErrBusError {
		t.Fatalf("firewalled write: %+v", res)
	}
	if r.reg.Counter("magic.firewall_denied").Value() != 1 || r.points(0, "firewall-denied") != 1 {
		t.Fatal("firewall denial not counted")
	}
	// Writes from inside the ACL succeed.
	if res := r.write(t, 1, page+0x80, 9); res.Err != nil {
		t.Fatalf("allowed write failed: %v", res.Err)
	}
	// Other pages are unaffected.
	if res := r.write(t, 3, page+0x2000, 5); res.Err != nil {
		t.Fatalf("open page write failed: %v", res.Err)
	}
}

func TestRangeCheckProtectsProtocolMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProtocolMemBytes = 0x10000
	r := newRig(t, 4, cfg)
	// Writes to the protocol region of any node's memory are denied.
	if res := r.write(t, 0, r.space.Base(0)+0x100, 1); res.Err != ErrBusError {
		t.Fatalf("local protocol write: %+v", res)
	}
	if r.reg.Counter("magic.range_denied").Value() != 1 || r.points(0, "range-denied") != 1 {
		t.Fatal("range denial not counted")
	}
	// Reads are allowed.
	if res := r.read(t, 0, r.space.Base(0)+0x100); res.Err != nil {
		t.Fatalf("protocol read: %v", res.Err)
	}
	// Writes above the region are allowed.
	if res := r.write(t, 0, r.space.Base(0)+0x10000, 1); res.Err != nil {
		t.Fatalf("normal write: %v", res.Err)
	}
}

func TestTimeoutTriggersRecovery(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	var reason TriggerReason = -1
	r.ctrl[0].SetTriggerHandler(func(tr TriggerReason) { reason = tr })
	// Kill node 3's controller without updating node maps: requests
	// vanish and the memory-operation timeout fires (Fig 4.3).
	r.ctrl[3].SetMode(ModeDead)
	r.ctrl[0].Read(r.space.Base(3), func(Result) {})
	r.e.RunUntil(2 * sim.Millisecond)
	if reason != ReasonTimeout {
		t.Fatalf("reason = %v, want timeout", reason)
	}
}

func TestNAKOverflowTriggersRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.nakLimit = 10
	r := newRig(t, 4, cfg)
	var reasons []TriggerReason
	r.ctrl[2].SetTriggerHandler(func(tr TriggerReason) { reasons = append(reasons, tr) })
	// Wedge a line in a pending state by making node 3 exclusive owner
	// and then killing it silently mid-recall: the lock never releases.
	// Node 0's GET becomes the pending request; node 2's GET is NAKed
	// until its counter overflows (§3.2, Table 4.1).
	a := r.space.Base(1) + 0x80
	r.write(t, 3, a, 7)
	r.ctrl[3].SetMode(ModeDead) // recall will be discarded
	r.ctrl[0].Read(a, func(Result) {})
	r.e.RunUntil(20 * sim.Microsecond)
	r.ctrl[2].Read(a, func(Result) {})
	r.e.RunUntil(5 * sim.Millisecond)
	// The NAK counter overflows first; the abandoned operation's timeout
	// may also fire later — the recovery agent deduplicates triggers.
	if len(reasons) == 0 || reasons[0] != ReasonNAKOverflow {
		t.Fatalf("reasons = %v, want NAK overflow first", reasons)
	}
	if r.points(2, "nak-received") == 0 {
		t.Fatal("no NAKs observed")
	}
}

func TestTruncatedPacketTriggersRecovery(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	var reason TriggerReason = -1
	r.ctrl[0].SetTriggerHandler(func(tr TriggerReason) { reason = tr })
	r.net.Send(&interconnect.Packet{
		Src: 1, Dst: 0, Lane: interconnect.LaneReply, Bytes: 128,
		Payload:   &coherence.Message{Type: coherence.MsgPut, Addr: 0, Req: 1},
		Truncated: true,
	})
	r.e.Run()
	if reason != ReasonTruncated {
		t.Fatalf("reason = %v, want truncated", reason)
	}
}

func TestAssertionTriggersRecovery(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	var reason TriggerReason = -1
	r.ctrl[2].SetTriggerHandler(func(tr TriggerReason) { reason = tr })
	r.ctrl[2].FailAssertion()
	if reason != ReasonAssertion {
		t.Fatalf("reason = %v, want assertion", reason)
	}
}

func TestEnterRecoveryAbortsOutstanding(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	r.ctrl[3].SetMode(ModeDead)
	var got error
	r.ctrl[0].Read(r.space.Base(3), func(res Result) { got = res.Err })
	r.e.RunUntil(10 * sim.Microsecond)
	if r.ctrl[0].Outstanding() != 1 {
		t.Fatal("request should be outstanding")
	}
	r.ctrl[0].EnterRecovery()
	r.e.RunUntil(20 * sim.Microsecond)
	if got != ErrAborted {
		t.Fatalf("err = %v, want aborted", got)
	}
	if r.ctrl[0].Outstanding() != 0 {
		t.Fatal("mshrs not cleared")
	}
	if r.ctrl[0].Mode() != ModeDrain {
		t.Fatal("controller should be draining")
	}
}

func TestDrainModeConsumesWithoutReplying(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	r.ctrl[1].SetMode(ModeDrain)
	drained := 0
	r.ctrl[1].SetDeadDropHandler(func(*coherence.Message) { drained++ })
	done := false
	r.ctrl[0].Read(r.space.Base(1), func(Result) { done = true })
	r.e.RunUntil(100 * sim.Microsecond)
	if done {
		t.Fatal("drain mode must not reply")
	}
	if drained == 0 {
		t.Fatal("drained packet not reported")
	}
	if r.ctrl[1].LastNormalDelivery() == 0 {
		t.Fatal("drain must record delivery times for the τ agreement")
	}
}

func TestDrainModeFoldsFlushWritebacks(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	a := r.space.Base(1) + 0x80
	r.write(t, 0, a, 99)
	// Home 1 now has a stale memory copy and an exclusive dir entry.
	r.ctrl[0].EnterRecovery()
	r.ctrl[1].EnterRecovery()
	r.e.Run()
	if n := r.ctrl[0].FlushCache(); n != 1 {
		t.Fatalf("flush sent %d writebacks, want 1", n)
	}
	r.e.Run()
	if r.ctrl[1].Mem.Read(a) != 99 {
		t.Fatal("flush writeback not folded into memory")
	}
	lost := r.ctrl[1].ScanDirectory()
	if len(lost) != 0 {
		t.Fatalf("scan marked %v incoherent after clean flush", lost)
	}
}

func TestScanMarksLostLinesIncoherent(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	a := r.space.Base(1) + 0x80
	r.write(t, 0, a, 99)
	// Node 0 dies without flushing: its exclusive line is lost.
	r.ctrl[0].SetMode(ModeDead)
	r.ctrl[1].EnterRecovery()
	r.e.Run()
	lost := r.ctrl[1].ScanDirectory()
	if len(lost) != 1 || lost[0] != a.Line() {
		t.Fatalf("lost = %v, want [%v]", lost, a.Line())
	}
	r.ctrl[1].SetMode(ModeNormal)
	if res := r.read(t, 1, a); res.Err != ErrBusError {
		t.Fatalf("read of lost line: %+v", res)
	}
}

func TestUncachedRoundTrip(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	r.ctrl[1].SetUncachedHandler(func(src int, payload any) (any, error) {
		return payload.(int) * 2, nil
	})
	var got any
	var gerr error
	r.ctrl[0].SendUncached(1, true, false, 21, func(v any, err error) { got, gerr = v, err })
	r.e.Run()
	if gerr != nil || got != 42 {
		t.Fatalf("uncached rpc: %v %v", got, gerr)
	}
}

func TestUncachedCrossUnitDenied(t *testing.T) {
	r := newRig(t, 4, DefaultConfig())
	units := []int{0, 1, 1, 1}
	for _, c := range r.ctrl {
		c.SetFailureUnits(units)
	}
	r.ctrl[1].SetUncachedHandler(func(src int, payload any) (any, error) { return payload, nil })
	var gerr error
	done := false
	r.ctrl[0].SendUncached(1, false, true, "x", func(v any, err error) { gerr = err; done = true })
	r.e.Run()
	if !done || gerr != ErrBusError {
		t.Fatalf("cross-unit uncached op: done=%v err=%v", done, gerr)
	}
	if r.points(1, "uncached-denied") != 1 {
		t.Fatal("uncached denial not counted")
	}
}

func TestModeAndReasonStrings(t *testing.T) {
	for m := ModeNormal; m <= ModeDead+1; m++ {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
	for r := ReasonTimeout; r <= ReasonFalseAlarm+1; r++ {
		if r.String() == "" {
			t.Fatal("empty reason string")
		}
	}
	r := newRig(t, 2, DefaultConfig())
	if r.ctrl[0].String() == "" {
		t.Fatal("empty controller string")
	}
}

func TestFirewallOverheadChargesOccupancy(t *testing.T) {
	// Measure intercell write miss latency with and without the
	// firewall; §6.2 reports the increase is below 7%.
	measure := func(firewall bool) sim.Time {
		cfg := DefaultConfig()
		cfg.FirewallEnabled = firewall
		r := newRig(t, 4, cfg)
		units := []int{0, 0, 1, 1}
		for _, c := range r.ctrl {
			c.SetFailureUnits(units)
		}
		start := r.e.Now()
		r.write(t, 2, r.space.Base(0)+0x80, 1)
		return r.e.Now() - start
	}
	off := measure(false)
	on := measure(true)
	if on <= off {
		t.Fatalf("firewall should add latency: off=%v on=%v", off, on)
	}
	frac := float64(on-off) / float64(off)
	if frac >= 0.07 {
		t.Fatalf("firewall overhead %.1f%% exceeds the paper's 7%% bound", frac*100)
	}
}

func TestRecallRaceMergedIntoMiss(t *testing.T) {
	// The recall-overtakes-grant race (§3.2's locking dance): node 3 has
	// a GETX outstanding when the home's recall for the same line lands.
	// The grant must be written straight back home instead of cached.
	r := newRig(t, 4, DefaultConfig())
	a := r.space.Base(1) + 0x80
	// Stage: node 0 owns the line exclusive.
	r.write(t, 0, a, 7)
	// Node 3 writes: GETX -> home recalls node 0 -> grant to 3 with the
	// recalled data; then node 2 writes: GETX -> recall to node 3. Run
	// both concurrently so the recall can overtake.
	done2, done3 := false, false
	r.ctrl[3].Write(a, 8, func(res Result) { done3 = true })
	r.ctrl[2].Write(a, 9, func(res Result) { done2 = true })
	r.e.Run()
	if !done2 || !done3 {
		t.Fatal("writes did not complete")
	}
	// Whatever the interleaving, the final committed value must win and
	// be readable coherently everywhere.
	res := r.read(t, 1, a)
	if res.Err != nil {
		t.Fatalf("read: %v", res.Err)
	}
	if res.Token != 8 && res.Token != 9 {
		t.Fatalf("token = %d, want one of the committed writes", res.Token)
	}
	// Memory and caches agree (no stale second copy).
	for i, c := range r.ctrl {
		if l := c.Cache.Lookup(a); l != nil && l.Token != res.Token &&
			l.State == coherence.CacheExclusive {
			t.Fatalf("node %d holds a conflicting exclusive copy: %d", i, l.Token)
		}
	}
}

func TestRecallNakResolvesFromMemory(t *testing.T) {
	// An eviction writeback races the recall: the home must complete the
	// waiting request from the (now current) memory copy.
	r := newRig(t, 2, DefaultConfig())
	base := r.space.Base(1)
	// Fill node 0's cache so the first line gets evicted (64-line cache).
	for i := 0; i < 64; i++ {
		r.write(t, 0, base+coherence.Addr(i*128), uint64(i+1))
	}
	// Evict line 0 by writing one more, then immediately read it from
	// node 1: if the recall finds it gone, a RecallNak resolves it.
	done := false
	var got Result
	r.ctrl[0].Write(base+coherence.Addr(64*128), 99, func(Result) {})
	r.ctrl[1].Read(base, func(res Result) { got = res; done = true })
	r.e.Run()
	if !done || got.Err != nil || got.Token != 1 {
		t.Fatalf("read after eviction race: %+v", got)
	}
}

func TestReadExclusiveGrantsWritableCopy(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	a := r.space.Base(1) + 0x80
	var res Result
	r.ctrl[0].ReadExclusive(a, func(rr Result) { res = rr })
	r.e.Run()
	if res.Err != nil || res.Token != coherence.InitialToken(a) {
		t.Fatalf("read exclusive: %+v", res)
	}
	l := r.ctrl[0].Cache.Lookup(a)
	if l == nil || l.State != coherence.CacheExclusive {
		t.Fatal("line should be exclusive")
	}
}

func TestOrphanGrantReturnedByFlush(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	a := r.space.Base(1) + 0x80
	// Node 0 writes; the grant is in flight when recovery enters drain.
	committed := false
	r.ctrl[0].Write(a, 42, func(res Result) { committed = res.Err == nil })
	// Run until the home has issued the grant but before it reaches the
	// requester (grant issue ~300 ns, delivery ~450 ns on this rig).
	r.e.RunUntil(380)
	r.ctrl[0].EnterRecovery()
	r.ctrl[1].EnterRecovery()
	r.e.RunUntil(r.e.Now() + sim.Millisecond)
	if committed {
		t.Fatal("write should have been aborted")
	}
	if len(r.ctrl[0].Orphans()) != 1 {
		t.Fatalf("orphans = %d, want 1", len(r.ctrl[0].Orphans()))
	}
	// Flush returns the orphan home; the sweep then finds nothing lost.
	r.ctrl[0].FlushCache()
	r.e.Run()
	if lost := r.ctrl[1].ScanDirectory(); len(lost) != 0 {
		t.Fatalf("scan marked %v after orphan return", lost)
	}
	if len(r.ctrl[0].Orphans()) != 0 {
		t.Fatal("orphan stash should be empty after flush")
	}
}

// Behind a reliable fabric drain keeps what it would discard: the grant of
// an aborted write waits in the requester's deferred queue, not in the
// orphan stash, and goes home when the mode is normal again, leaving the
// home no entry that names a cache without the line (§6.3).
func TestReliableDrainDefersOrphanGrantAndReturnsIt(t *testing.T) {
	icfg := interconnect.DefaultConfig()
	icfg.Reliable = true
	r := newRigNet(t, 2, DefaultConfig(), icfg)
	a := r.space.Base(1) + 0x80
	committed := false
	r.ctrl[0].Write(a, 42, func(res Result) { committed = res.Err == nil })
	r.e.RunUntil(380) // the grant is on the wire (see TestOrphanGrantReturnedByFlush)
	r.ctrl[0].EnterRecovery()
	r.ctrl[1].EnterRecovery()
	r.e.RunUntil(r.e.Now() + sim.Millisecond)
	if committed {
		t.Fatal("write should have been aborted")
	}
	if n, d := len(r.ctrl[0].Orphans()), len(r.ctrl[0].deferred); n != 0 || d != 1 {
		t.Fatalf("orphans = %d, deferred = %d, want 0 and 1", n, d)
	}
	if lost := r.ctrl[1].ScanDirectoryLiveness(); len(lost) != 0 {
		t.Fatalf("liveness scan marked %v", lost)
	}
	if e := r.ctrl[1].Dir.Peek(a); e == nil || e.State != coherence.DirExclusive || e.Owner != 0 {
		t.Fatalf("home entry before replay = %+v, want exclusive at 0", e)
	}
	r.ctrl[1].SetMode(ModeNormal)
	r.ctrl[0].SetMode(ModeNormal)
	r.e.Run()
	if d := len(r.ctrl[0].deferred); d != 0 {
		t.Fatalf("deferred = %d after replay", d)
	}
	if e := r.ctrl[1].Dir.Peek(a); e != nil {
		t.Fatalf("home entry after replay = %+v, want none", e)
	}
	if r.ctrl[0].Cache.Lookup(a) != nil {
		t.Fatal("the orphaned grant must not be cached")
	}
	if got := r.read(t, 0, a); got.Err != nil || got.Token != coherence.InitialToken(a) {
		t.Fatalf("read after replay: %+v", got)
	}
}

// The drain rule (drainFate) meets every coherence message type at three
// doors, with the reliable fabric off and on: the message arrives at a
// controller already in drain mode (Accept), sits queued when recovery
// begins (EnterRecovery), or is dispatched after the mode changed under it
// (handle). At each door the message must end the same way: a writeback
// folded home, or an exclusive grant stashed as an orphan; behind a
// reliable fabric everything else deferred; otherwise everything else
// reported through the dead-drop hook.
func TestDrainFateSameAtEveryDoor(t *testing.T) {
	doors := []struct {
		name string
		pass func(c *Controller, p *interconnect.Packet)
	}{
		{"arrives in drain mode", func(c *Controller, p *interconnect.Packet) {
			c.SetMode(ModeDrain)
			c.Accept(p)
		}},
		{"queued at EnterRecovery", func(c *Controller, p *interconnect.Packet) {
			c.busy = true // hold the message in the input queue
			c.Accept(p)
			c.EnterRecovery()
			c.busy = false
			c.process()
		}},
		{"dispatched after the mode changed", func(c *Controller, p *interconnect.Packet) {
			c.Accept(p)
			c.SetMode(ModeDrain)
		}},
	}
	for _, reliable := range []bool{false, true} {
		for ty := coherence.MsgGet; ty <= coherence.MsgUncachedErr; ty++ {
			var want string
			switch {
			case ty == coherence.MsgPut:
				want = "folded"
			case reliable:
				want = "deferred"
			case ty == coherence.MsgDataExcl:
				want = "orphaned"
			default:
				want = "discarded"
			}
			for _, door := range doors {
				icfg := interconnect.DefaultConfig()
				icfg.Reliable = reliable
				r := newRigNet(t, 2, DefaultConfig(), icfg)
				c := r.ctrl[0]
				dropped := 0
				c.SetDeadDropHandler(func(*coherence.Message) { dropped++ })
				// Node 1 owns a line of home 0, so its writeback folds.
				a := r.space.Base(0) + 0x80
				e := c.Dir.Get(a)
				e.State, e.Owner = coherence.DirExclusive, 1
				msg := coherence.Message{Type: ty, Addr: a, Req: 1, Data: 77}
				door.pass(c, &interconnect.Packet{Src: 1, Dst: 0, Lane: interconnect.LaneRequest, Bytes: 16, Payload: &msg})
				r.e.Run()
				var got []string
				if c.Mem.Read(a) == 77 && c.Dir.Peek(a) == nil {
					got = append(got, "folded")
				}
				if len(c.orphans) == 1 {
					got = append(got, "orphaned")
				}
				if len(c.deferred) == 1 {
					got = append(got, "deferred")
				}
				if dropped == 1 {
					got = append(got, "discarded")
				}
				if len(got) != 1 || got[0] != want {
					t.Errorf("reliable %v, %v %s: %v, want %s", reliable, ty, door.name, got, want)
				}
			}
		}
	}
}

// A message drain deferred from a node that the node map has since marked
// down is dropped at replay, through the dead-drop hook, not handled.
func TestReliableReplayDropsMessagesFromDownNodes(t *testing.T) {
	icfg := interconnect.DefaultConfig()
	icfg.Reliable = true
	r := newRigNet(t, 2, DefaultConfig(), icfg)
	var dropped []coherence.MsgType
	r.ctrl[1].SetDeadDropHandler(func(m *coherence.Message) { dropped = append(dropped, m.Type) })
	a := r.space.Base(1) + 0x80
	r.ctrl[0].Read(a, func(Result) {})
	r.ctrl[1].EnterRecovery() // the GET is on the wire
	r.e.Run()
	if d := len(r.ctrl[1].deferred); d != 1 {
		t.Fatalf("deferred = %d, want the GET", d)
	}
	r.ctrl[1].SetNodeUp(0, false)
	r.ctrl[1].SetMode(ModeNormal)
	r.e.Run()
	if len(dropped) != 1 || dropped[0] != coherence.MsgGet {
		t.Fatalf("dead-drop hook saw %v, want one GET", dropped)
	}
	if e := r.ctrl[1].Dir.Peek(a); e != nil {
		t.Fatalf("home entry = %+v: the dropped GET was handled", e)
	}
}

func TestSendUncachedToDeadNodeFailsFast(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	r.ctrl[0].SetNodeUp(1, false)
	var gerr error
	done := false
	r.ctrl[0].SendUncached(1, true, false, "x", func(v any, err error) { gerr = err; done = true })
	r.e.Run()
	if !done || gerr != ErrBusError {
		t.Fatalf("uncached to mapped-out node: done=%v err=%v", done, gerr)
	}
}

func TestHandlerHooksRegistered(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	var dropped *coherence.Message
	r.ctrl[0].SetDeadDropHandler(func(m *coherence.Message) { dropped = m })
	r.ctrl[0].SetRecoveryHandler(func(p *interconnect.Packet) {})
	r.ctrl[0].SetMode(ModeDead)
	r.net.Send(&interconnect.Packet{
		Src: 1, Dst: 0, Lane: interconnect.LaneReply, Bytes: 128,
		Payload: &coherence.Message{Type: coherence.MsgPut, Addr: 0x80, Req: 1, Data: 5},
	})
	r.e.Run()
	if dropped == nil || dropped.Type != coherence.MsgPut {
		t.Fatal("dead-drop hook not invoked")
	}
	if !r.ctrl[0].NodeUp(1) {
		t.Fatal("NodeUp default should be true")
	}
	// Clearing a firewall entry opens the page again.
	w := coherence.NewNodeSet(2)
	w.Add(0)
	r.ctrl[0].SetFirewall(0, w)
	r.ctrl[0].SetFirewall(0, nil)
}

func TestRecallNakDirect(t *testing.T) {
	// Drive handleRecallNak's resolution path: home pending on a recall
	// whose target legitimately evicted first.
	r := newRig(t, 2, DefaultConfig())
	a := r.space.Base(0) + 0x80
	e := r.ctrl[0].Dir.Get(a)
	e.State = coherence.DirPendingRecall
	e.Owner = 1
	e.PendingReq = 1
	e.PendingExcl = false
	e.PendingSeq = 77
	r.ctrl[0].Mem.Write(a, 123)
	// Deliver a RecallNak from node 1.
	r.net.Send(&interconnect.Packet{
		Src: 1, Dst: 0, Lane: interconnect.LaneReply, Bytes: 16,
		Payload: &coherence.Message{Type: coherence.MsgRecallNak, Addr: a, Req: 1},
	})
	r.e.Run()
	if e.State != coherence.DirShared || !e.Sharers.Has(1) {
		t.Fatalf("entry after RecallNak: %v", e.State)
	}
}

func TestStrayRepliesIgnored(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	// Replies and acks with no matching transaction must be harmless.
	for _, ty := range []coherence.MsgType{
		coherence.MsgDataShared, coherence.MsgDataExcl, coherence.MsgNak,
		coherence.MsgBusErr, coherence.MsgInvAck, coherence.MsgRecallNak,
		coherence.MsgPut, coherence.MsgUncachedReply,
	} {
		r.net.Send(&interconnect.Packet{
			Src: 1, Dst: 0, Lane: interconnect.LaneReply, Bytes: 16,
			Payload: &coherence.Message{Type: ty, Addr: 0x80, Req: 0, Seq: 9999},
		})
	}
	r.e.Run()
	if r.ctrl[0].Outstanding() != 0 {
		t.Fatal("stray replies created state")
	}
}

// churn pushes traffic through the wire pool: node-local misses still
// travel as loopback packets, so every read acquires and releases records.
func (r *testRig) churn(t *testing.T, node int) {
	t.Helper()
	for i := 0; i < 32; i++ {
		r.read(t, node, r.space.Base(node)+coherence.Addr(0x1000+i*128))
	}
}

// withPoison runs scenario with released records zeroed, then poisoned; a
// record recycled while something still held it would make the two differ
// (or fail the scenario's own checks under poison).
func withPoison(t *testing.T, scenario func(t *testing.T)) {
	t.Helper()
	for _, poison := range []bool{false, true} {
		PoisonReleasedForTest(poison)
		scenario(t)
	}
	PoisonReleasedForTest(false)
}

// An exclusive grant stashed as a drain-mode orphan is retained past its
// dispatch: its record must not be recycled under it.
func TestOrphanStashKeepsItsRecord(t *testing.T) {
	withPoison(t, func(t *testing.T) {
		r := newRig(t, 2, DefaultConfig())
		a := r.space.Base(1) + 0x80
		r.ctrl[0].Write(a, 42, func(Result) {})
		r.e.RunUntil(380) // grant issued, not yet delivered (see TestOrphanGrantReturnedByFlush)
		r.ctrl[0].EnterRecovery()
		r.ctrl[1].EnterRecovery()
		r.e.RunUntil(r.e.Now() + sim.Millisecond)
		if len(r.ctrl[0].Orphans()) != 1 {
			t.Fatalf("orphans = %d, want 1", len(r.ctrl[0].Orphans()))
		}
		// Recycle records through a bystander pair before the flush.
		by := newRig(t, 2, DefaultConfig())
		by.churn(t, 0)
		o := r.ctrl[0].Orphans()[0]
		if o.Type != coherence.MsgDataExcl || o.Addr != a || o.Data != coherence.InitialToken(a) {
			t.Fatalf("orphan overwritten while stashed: %+v", *o)
		}
		if sent := r.ctrl[0].FlushCache(); sent != 1 {
			t.Fatalf("flush sent %d writebacks, want the orphan's", sent)
		}
		r.e.Run()
		if lost := r.ctrl[1].ScanDirectory(); len(lost) != 0 {
			t.Fatalf("scan marked %v after orphan return", lost)
		}
	})
}

// The P4 flush's writebacks travel in flush records, which their homes hand
// back to flushFree, never to wirePool, so the flush burst never sits in the
// collector-cleared pool; ordinary traffic leaves flushFree alone. A flush
// that empties the list refills it a whole flushBlock at a time.
func TestFlushRecordsRecycleThroughFlushFree(t *testing.T) {
	free := func() int {
		flushFree.Lock()
		defer flushFree.Unlock()
		return len(flushFree.recs)
	}
	r := newRig(t, 2, DefaultConfig())
	const lines = 4
	for i := 0; i < lines; i++ {
		r.write(t, 0, r.space.Base(1)+coherence.Addr(i*128), uint64(10+i))
	}
	r.ctrl[0].EnterRecovery()
	r.ctrl[1].EnterRecovery()
	r.e.Run()
	before := free()
	if n := r.ctrl[0].FlushCache(); n != lines {
		t.Fatalf("flush sent %d writebacks, want %d", n, lines)
	}
	sent := free()
	short := max(lines-before, 0)
	refill := (short + flushBlock - 1) / flushBlock * flushBlock
	if want := before + refill - lines; sent != want {
		t.Fatalf("flushFree holds %d records after the flush took %d of %d (refilled %d), want %d", sent, lines, before, refill, want)
	}
	r.e.Run()
	if got := free(); got != sent+lines {
		t.Fatalf("flushFree holds %d records after delivery, want %d", got, sent+lines)
	}
	r.ctrl[0].SetMode(ModeNormal)
	r.ctrl[1].SetMode(ModeNormal)
	r.churn(t, 0)
	if got := free(); got != sent+lines {
		t.Fatalf("ordinary traffic moved flushFree to %d records, want %d", got, sent+lines)
	}
}

// A packet truncated in flight is delivered (and dropped) at its
// destination while a reliable fabric still holds it for retransmission:
// the later resend carries the old record's message, which must be intact.
func TestTruncatedDeliveryKeepsItsRecord(t *testing.T) {
	withPoison(t, func(t *testing.T) {
		icfg := interconnect.DefaultConfig()
		icfg.Reliable = true
		r := newRigNet(t, 2, DefaultConfig(), icfg)
		e, net, space := r.e, r.net, r.space
		truncated := 0
		r.ctrl[1].SetTriggerHandler(func(tr TriggerReason) {
			if tr == ReasonTruncated {
				truncated++
			}
		})
		a := space.Base(1) + 0x80
		var res Result
		done := false
		r.ctrl[0].Read(a, func(rr Result) { res, done = rr, true })
		e.RunUntil(1) // the GET is crossing the one link
		net.FailLinkTransient(0, 10*sim.Microsecond)
		e.RunUntil(20 * sim.Microsecond)
		if truncated != 1 || net.RetainedLost() != 1 || done {
			t.Fatalf("truncated=%d retained=%d done=%v, want 1 1 false", truncated, net.RetainedLost(), done)
		}
		r.churn(t, 1)
		if sent := net.RetransmitLost(func(int) bool { return true }); sent != 1 {
			t.Fatalf("retransmitted %d packets, want 1", sent)
		}
		e.RunUntil(e.Now() + 100*sim.Microsecond)
		if !done || res.Err != nil || res.Token != coherence.InitialToken(a) {
			t.Fatalf("read after retransmission: done=%v %+v", done, res)
		}
	})
}

// Every way a store can complete successfully hands the processor the token
// it stored in Result.Token, which lets a workload learn a committed write's
// value from the completion alone: an L2 exclusive hit, an exclusive grant,
// a grant whose line a recall claimed before it arrived, and a store merged
// into another operation's outstanding miss.
func TestWriteCompletionReturnsStoredToken(t *testing.T) {
	const tok = 0x5107e
	run := func(t *testing.T, r *testRig, wantTok uint64, res *Result, done *bool) {
		t.Helper()
		r.e.Run()
		if !*done || res.Err != nil || res.Token != wantTok {
			t.Fatalf("write completed=%v with %+v, want token %#x", *done, *res, wantTok)
		}
	}
	t.Run("exclusive-grant", func(t *testing.T) {
		r := newRig(t, 4, DefaultConfig())
		if res := r.write(t, 0, r.space.Base(2)+0x80, tok); res.Err != nil || res.Token != tok {
			t.Fatalf("write: %+v, want token %#x", res, tok)
		}
	})
	t.Run("l2-hit", func(t *testing.T) {
		r := newRig(t, 4, DefaultConfig())
		a := r.space.Base(2) + 0x80
		r.write(t, 0, a, 1)
		var res Result
		done := false
		r.ctrl[0].Write(a, tok, func(rr Result) { res, done = rr, true })
		if r.ctrl[0].Outstanding() != 0 {
			t.Fatal("a store to an exclusive line should hit in the L2")
		}
		run(t, r, tok, &res, &done)
	})
	t.Run("recalled-grant", func(t *testing.T) {
		r := newRig(t, 4, DefaultConfig())
		a := r.space.Base(1) + 0x80
		var res Result
		done := false
		r.ctrl[0].Write(a, tok, func(rr Result) { res, done = rr, true })
		// The home's recall overtakes the grant (request lane vs reply lane).
		r.ctrl[0].handleRecall(&coherence.Message{Type: coherence.MsgRecall, Addr: a, Req: 1})
		run(t, r, tok, &res, &done)
		if r.ctrl[0].Cache.Lookup(a) != nil || r.ctrl[1].Mem.Read(a) != tok {
			t.Fatal("a recalled grant should go straight home with the store")
		}
	})
	t.Run("merged-into-read-miss", func(t *testing.T) {
		r := newRig(t, 4, DefaultConfig())
		a := r.space.Base(3) + 0x80
		r.ctrl[0].Read(a, func(Result) {})
		var res Result
		done := false
		r.ctrl[0].Write(a, tok, func(rr Result) { res, done = rr, true })
		if r.ctrl[0].Outstanding() != 1 {
			t.Fatal("the store should merge into the read's miss")
		}
		run(t, r, tok, &res, &done)
	})
	t.Run("merged-into-write-miss", func(t *testing.T) {
		r := newRig(t, 4, DefaultConfig())
		a := r.space.Base(3) + 0x80
		r.ctrl[0].Write(a, 1, func(Result) {})
		var res Result
		done := false
		r.ctrl[0].Write(a, tok, func(rr Result) { res, done = rr, true })
		if r.ctrl[0].Outstanding() != 1 {
			t.Fatal("the store should merge into the first store's miss")
		}
		run(t, r, tok, &res, &done)
	})
}
