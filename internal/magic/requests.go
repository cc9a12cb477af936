package magic

import (
	"slices"

	"flashfc/internal/coherence"
	"flashfc/internal/timing"
)

// Processor-side request path: cache hits, misses through the directory
// protocol, NAK retry with counter overflow, memory-operation timeouts, and
// uncached cross-node operations.

// Read performs a processor load of addr, completing through cb.
func (c *Controller) Read(addr coherence.Addr, cb func(Result)) {
	c.access(addr, false, false, 0, cb)
}

// ReadExclusive fetches addr exclusive without modifying it (e.g. a
// speculatively executed or soon-to-be-written line).
func (c *Controller) ReadExclusive(addr coherence.Addr, cb func(Result)) {
	c.access(addr, true, false, 0, cb)
}

// Write performs a processor store of token to addr, fetching the line
// exclusive first if needed.
func (c *Controller) Write(addr coherence.Addr, token uint64, cb func(Result)) {
	c.access(addr, true, true, token, cb)
}

func (c *Controller) access(addr coherence.Addr, excl, hasStore bool, storeTok uint64, cb func(Result)) {
	addr = c.Space.Remap(c.ID, addr).Line()
	// Range check: the protocol-memory region is writable only by the
	// local protocol processor (§3.3).
	if excl && c.rangeDenied(addr) {
		c.mRangeDenied.Inc()
		c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "range-denied", 0, int64(addr), 0)
		c.completeErr(cb, ErrBusError)
		return
	}
	// L2 hit path.
	if l := c.Cache.Lookup(addr); l != nil {
		if !excl {
			c.E.AfterCall(timing.CacheHitTime, c.completeFn, cb, nil, l.Token)
			return
		}
		if l.State == coherence.CacheExclusive {
			if hasStore {
				l.Token = storeTok
			}
			c.E.AfterCall(timing.CacheHitTime, c.completeFn, cb, nil, l.Token)
			return
		}
		// Shared→exclusive upgrade falls through to a GETX.
	}
	// Merge into an outstanding miss on the same line (one MSHR per
	// line): a second concurrent grant would clobber the first one's
	// freshly written data with the stale memory copy.
	for _, m := range c.mshrs {
		if !m.uncached && m.addr == addr {
			m.waiters = append(m.waiters, waiterOp{
				excl: excl, hasStore: hasStore, storeTok: storeTok, cb: cb,
			})
			return
		}
	}
	// Miss path: consult the node map before sending (§3.1). A down home
	// whose memory bank is still served (CPU-fail/memory-survives) stays
	// addressable.
	home := c.Space.Home(addr)
	if !c.reachable(home) {
		c.completeErr(cb, ErrBusError)
		return
	}
	c.sendRequest(c.addMSHR(mshr{
		seq: c.nextSeq(), addr: addr, excl: excl,
		hasStore: hasStore, storeTok: storeTok, cb: cb,
	}))
}

// mshrBlock is how many MSHRs an empty free list is refilled with at once:
// two records of 192 bytes fill the 384-byte size class exactly. A larger
// block costs resident heap in every controller that never has that many
// operations outstanding, and a campaign holds every finished machine.
const mshrBlock = 2

// addMSHR appends v to the outstanding-operation table in a recycled
// record, minting a block first if the free list is empty. Sequence numbers
// only grow, so appending keeps the table in seq order.
func (c *Controller) addMSHR(v mshr) *mshr {
	if len(c.mshrFree) == 0 {
		c.mintMSHRs()
	}
	n := len(c.mshrFree)
	m := c.mshrFree[n-1]
	c.mshrFree[n-1] = nil
	c.mshrFree = c.mshrFree[:n-1]
	*m = v
	c.mshrs = append(c.mshrs, m)
	return m
}

// mintMSHRs refills the empty free list with a block of records in one
// allocation. Every record not on the list is in the table, so the list and
// the table grow to hold all of them, and neither dropMSHR nor addMSHR's
// appends have to grow them. It stays out of line so that addMSHR inlines.
//
//go:noinline
func (c *Controller) mintMSHRs() {
	c.mshrs = slices.Grow(c.mshrs, mshrBlock)
	c.mshrFree = slices.Grow(c.mshrFree, len(c.mshrs)+mshrBlock)
	blk := make([]mshr, mshrBlock)
	for i := len(blk) - 1; i >= 0; i-- {
		c.mshrFree = append(c.mshrFree, &blk[i])
	}
}

// findMSHR returns the outstanding operation with sequence number seq, or
// nil if it has completed or was aborted.
func (c *Controller) findMSHR(seq uint64) *mshr {
	for _, m := range c.mshrs {
		if m.seq == seq {
			return m
		}
	}
	return nil
}

// dropMSHR removes m from the table, preserving issue order, and recycles
// the record. Callers must have copied out whatever they still need: the
// next access may be handed the same record.
func (c *Controller) dropMSHR(m *mshr) {
	if i := slices.Index(c.mshrs, m); i >= 0 {
		c.mshrs = slices.Delete(c.mshrs, i, i+1)
	}
	c.recycleMSHR(m)
}

// dropAllMSHRs empties the table, recycling every record.
func (c *Controller) dropAllMSHRs() {
	for _, m := range c.mshrs {
		c.recycleMSHR(m)
	}
	clear(c.mshrs)
	c.mshrs = c.mshrs[:0]
}

func (c *Controller) recycleMSHR(m *mshr) {
	*m = mshr{}
	if poisonReleased.Load() {
		m.seq, m.addr = ^uint64(0), ^coherence.Addr(0)
	}
	c.mshrFree = append(c.mshrFree, m)
}

func (c *Controller) nextSeq() uint64 {
	c.seq++
	return c.seq
}

func (c *Controller) completeErr(cb func(Result), err error) {
	c.E.AfterCall(timing.CacheHitTime, c.completeFn, cb, err, 0)
}

// sendRequest (re)issues the coherence request for m and arms its timeout.
func (c *Controller) sendRequest(m *mshr) {
	ty := coherence.MsgGet
	if m.excl {
		ty = coherence.MsgGetX
	}
	home := c.Space.Home(m.addr)
	c.sendMsg(home, coherence.Message{Type: ty, Addr: m.addr, Req: c.ID, Seq: m.seq})
	c.armTimeout(m)
}

func (c *Controller) armTimeout(m *mshr) {
	m.timeout.Cancel()
	m.timeout = c.E.AfterCall(timing.MemOpTimeout, c.timeoutFn, nil, nil, m.seq)
}

// sendMsg routes a protocol message to dst, applying the node map. It
// reports whether the message was actually sent. A data-carrying message
// suppressed by the node map is reported through the discard hook: its
// content goes nowhere. The message travels in a pooled wire record.
func (c *Controller) sendMsg(dst int, msg coherence.Message) bool {
	if !c.reachable(dst) {
		// Copy into a local inside this branch only: taking &msg would
		// move every caller's message to the heap.
		lost := msg
		c.discarded(&lost)
		return false
	}
	c.Net.Send(&acquireWire(c.ID, dst, msg).pkt)
	return true
}

// completeMSHR finalizes an outstanding operation and replays any same-line
// operations merged into it (most become cache hits).
func (c *Controller) completeMSHR(m *mshr, res Result) {
	m.timeout.Cancel()
	m.retry.Cancel()
	// Copy out before recycling: the callback re-enters access, which may
	// be handed this very record.
	cb, addr, waiters := m.cb, m.addr, m.waiters
	c.dropMSHR(m)
	if cb != nil {
		cb(res)
	}
	for _, w := range waiters {
		c.access(addr, w.excl, w.hasStore, w.storeTok, w.cb)
	}
}

// install places granted data in the cache, writing back any exclusive
// victim the installation displaces.
func (c *Controller) install(addr coherence.Addr, st coherence.CacheState, token uint64) {
	victim, ev, evicted := c.Cache.Install(addr, st, token)
	if evicted && ev.State == coherence.CacheExclusive {
		home := c.Space.Home(victim)
		c.sendMsg(home, coherence.Message{
			Type: coherence.MsgPut, Addr: victim, Req: c.ID, Data: ev.Token,
		})
	}
}

// SendUncached issues an uncached read or write to node dst. Uncached
// operations have exactly-once semantics: they are never retried; a timeout
// triggers recovery instead (§3.3). io marks an access to an I/O device
// register, which the target bus-errors when the sender is outside its
// failure unit.
func (c *Controller) SendUncached(dst int, write, io bool, payload any, cb func(any, error)) {
	m := c.addMSHR(mshr{seq: c.nextSeq(), uncached: true, udst: dst, uwrite: write, upayload: payload, ucb: cb})
	ty := coherence.MsgUncachedRead
	if write {
		ty = coherence.MsgUncachedWrite
	}
	if !c.sendMsg(dst, coherence.Message{Type: ty, Req: c.ID, Seq: m.seq, UPayload: payload, IO: io}) {
		c.dropMSHR(m)
		c.E.After(timing.CacheHitTime, func() { cb(nil, ErrBusError) })
		return
	}
	c.armTimeout(m)
}

// EnterRecovery aborts all outstanding operations (pending cacheable
// requests are NAKed back to the processor and reissued after recovery,
// §4.2), empties the input queue, and switches to drain mode.
//
// Node-local transactions are rolled back cleanly: a grant that never left
// this controller (home == requester) is undone in the directory, since
// nothing was actually entrusted to the interconnect. Cross-node grants in
// flight are genuinely at risk and are left to the P4 directory sweep.
func (c *Controller) EnterRecovery() {
	// Abort in issue order — the table's own order: the completion
	// callbacks re-enter user code, and whole-machine determinism requires
	// a deterministic order here.
	for _, m := range c.mshrs {
		if !m.uncached && c.Space.Home(m.addr) == c.ID {
			if e := c.Dir.Peek(m.addr); e != nil &&
				e.State == coherence.DirExclusive && e.Owner == c.ID &&
				c.Cache.Lookup(m.addr) == nil {
				c.Dir.Drop(m.addr)
			}
		}
	}
	for _, m := range c.mshrs {
		m.timeout.Cancel()
		m.retry.Cancel()
		if m.cb != nil {
			c.E.AfterCall(0, c.completeFn, m.cb, ErrAborted, 0)
		}
		for _, w := range m.waiters {
			if w.cb != nil {
				c.E.AfterCall(0, c.completeFn, w.cb, ErrAborted, 0)
			}
		}
		if m.ucb != nil {
			ucb := m.ucb
			c.E.After(0, func() { ucb(nil, ErrAborted) })
		}
	}
	c.dropAllMSHRs()
	// What is queued meets the drain rule now, as if it arrived in drain
	// mode.
	kept := c.input[:0]
	for _, p := range c.input {
		msg, ok := p.Payload.(*coherence.Message)
		if !ok {
			// The only queued non-coherence packet is a flush-done, of
			// an epoch this entry supersedes: drop it.
			continue
		}
		switch c.drainFate(msg.Type) {
		case fateFold, fateOrphan:
			kept = append(kept, p)
		case fateDefer:
			c.deferred = append(c.deferred, p)
		default:
			c.discarded(msg)
		}
	}
	clear(c.input[len(kept):])
	c.input = kept
	c.SetMode(ModeDrain)
	c.process()
}

// Outstanding reports the number of in-flight processor operations.
func (c *Controller) Outstanding() int { return len(c.mshrs) }

// Orphans exposes the drain-mode grant stash; a node that shuts down
// before flushing abandons these (the harness oracle counts them lost).
func (c *Controller) Orphans() []*coherence.Message { return c.orphans }

// FlushCache implements the P4 cache flush (§4.5): every exclusive line is
// written back to its home (skipping homes the node map reports dead: those
// lines are inaccessible anyway) and the cache is left empty. It returns the
// number of writebacks sent. The writebacks travel in flush records (see
// flushFree), not pooled ones.
func (c *Controller) FlushCache() int {
	sent := 0
	put := func(a coherence.Addr, data uint64) {
		msg := coherence.Message{Type: coherence.MsgPut, Addr: a, Req: c.ID, Data: data}
		home := c.Space.Home(a)
		if !c.reachable(home) {
			lost := msg // as in sendMsg: only this branch moves it to the heap
			c.discarded(&lost)
			return
		}
		c.Net.Send(&acquireFlushWire(c.ID, home, msg).pkt)
		sent++
	}
	c.Cache.FlushEach(func(a coherence.Addr, l *coherence.CacheLine) { put(a, l.Token) })
	// Return orphaned exclusive grants stashed during the drain: their
	// data never reached a cache, so the home's memory copy must be
	// refreshed from the grant before the directory sweep.
	for _, o := range c.orphans {
		put(o.Addr, o.Data)
	}
	c.orphans = nil
	return sent
}

// ScanDirectory implements the P4 directory sweep (§4.5) and returns the
// lines newly marked incoherent.
func (c *Controller) ScanDirectory() []coherence.Addr { return c.Dir.Scan() }

// ScanDirectoryLiveness is the flush-free sweep used with a reliable
// interconnect (§6.3): liveness comes from the freshly updated node map.
func (c *Controller) ScanDirectoryLiveness() []coherence.Addr {
	return c.Dir.ScanLiveness(c.nodeUp.Has)
}

// DropUnreachableLines is the flush-free P4's cache walk (§6.3): every
// line whose home the freshly updated node map makes unreachable leaves
// the cache, so a later access misses and takes the node map's bus error,
// as it does after a flush. An exclusive copy was the line's only valid
// one; it is reported through the dead-drop hook, as FlushCache reports a
// writeback to a dead home.
func (c *Controller) DropUnreachableLines() {
	c.Cache.ForEach(func(a coherence.Addr, l *coherence.CacheLine) {
		if c.reachable(c.Space.Home(a)) {
			return
		}
		if l.State == coherence.CacheExclusive {
			lost := coherence.Message{Type: coherence.MsgPut, Addr: a, Req: c.ID, Data: l.Token}
			c.discarded(&lost)
		}
		c.Cache.Invalidate(a)
	})
}

// ScrubPage resets the coherence state of any incoherent lines in the page,
// the MAGIC service Hive uses before reusing a page (§4.6). Scrubbed lines
// are reinitialized (the page is about to be reused with fresh content).
// It returns the number of lines scrubbed.
func (c *Controller) ScrubPage(page coherence.Addr) int {
	page = page.Page()
	n := 0
	for off := coherence.Addr(0); off < 4096; off += 128 {
		a := page + off
		if c.Dir.Scrub(a) {
			c.Mem.Write(a, coherence.InitialToken(a))
			n++
		}
	}
	return n
}
