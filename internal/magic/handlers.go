package magic

import (
	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/timing"
)

// Home-side and requester-side protocol handlers. Each runs after its
// dispatch occupancy has been charged (see Controller.process).

// handle runs the handler for the message p carries. It reports whether it
// retained the message beyond its return (the orphan stash, the deferred
// queue), in which case the caller must not recycle the record it lives in.
func (c *Controller) handle(p *interconnect.Packet) (retained bool) {
	msg := p.Payload.(*coherence.Message)
	// The mode may have changed while this handler sat in the queue.
	switch c.mode {
	case ModeDead, ModeLoop:
		c.discarded(msg)
		return false
	case ModeDrain:
		switch c.drainFate(msg.Type) {
		case fateFold:
			c.handlePut(msg)
		case fateOrphan:
			c.orphans = append(c.orphans, msg)
			return true
		case fateDefer:
			c.deferred = append(c.deferred, p)
			return true
		default:
			c.discarded(msg)
		}
		return false
	}
	switch msg.Type {
	case coherence.MsgGet:
		c.handleGet(msg)
	case coherence.MsgGetX:
		c.handleGetX(msg)
	case coherence.MsgPut:
		c.handlePut(msg)
	case coherence.MsgRecall:
		c.handleRecall(msg)
	case coherence.MsgRecallNak:
		c.handleRecallNak(msg)
	case coherence.MsgInval:
		c.handleInval(msg)
	case coherence.MsgInvAck:
		c.handleInvAck(msg)
	case coherence.MsgDataShared, coherence.MsgDataExcl,
		coherence.MsgNak, coherence.MsgBusErr:
		c.handleReply(msg)
	case coherence.MsgUncachedRead, coherence.MsgUncachedWrite:
		c.handleUncached(msg)
	case coherence.MsgUncachedReply, coherence.MsgUncachedErr:
		c.handleUncachedReply(msg)
	}
	return false
}

// reply sends a response for the transaction identified by (req, seq).
func (c *Controller) reply(req int, ty coherence.MsgType, addr coherence.Addr, seq uint64, data uint64) {
	if ty == coherence.MsgNak {
		c.mNAKsSent.Inc()
		c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "nak-sent", 0, int64(addr), int64(req))
	}
	c.sendMsg(req, coherence.Message{Type: ty, Addr: addr, Req: req, Seq: seq, Data: data})
}

// handleGet services a shared-copy request at the home.
func (c *Controller) handleGet(msg *coherence.Message) {
	e := c.Dir.Get(msg.Addr)
	switch e.State {
	case coherence.DirInvalid:
		e.State = coherence.DirShared
		e.Sharers.Add(msg.Req)
		c.reply(msg.Req, coherence.MsgDataShared, msg.Addr, msg.Seq, c.Mem.Read(msg.Addr))
	case coherence.DirShared:
		e.Sharers.Add(msg.Req)
		c.reply(msg.Req, coherence.MsgDataShared, msg.Addr, msg.Seq, c.Mem.Read(msg.Addr))
	case coherence.DirExclusive:
		if e.Owner == msg.Req {
			// A request from the recorded owner means its eviction
			// writeback is in flight and was overtaken on the request
			// lane: lock the line and complete when the PUT arrives.
			e.State = coherence.DirPendingRecall
			e.PendingReq = int32(msg.Req)
			e.PendingExcl = false
			e.PendingSeq = msg.Seq
			return
		}
		// Lock the line and recall the owner's copy (§3.2).
		e.State = coherence.DirPendingRecall
		e.PendingReq = int32(msg.Req)
		e.PendingExcl = false
		e.PendingSeq = msg.Seq
		c.sendMsg(e.Owner, coherence.Message{Type: coherence.MsgRecall, Addr: msg.Addr, Req: c.ID})
	case coherence.DirPendingRecall, coherence.DirPendingInval:
		c.reply(msg.Req, coherence.MsgNak, msg.Addr, msg.Seq, 0)
	case coherence.DirIncoherent:
		c.reply(msg.Req, coherence.MsgBusErr, msg.Addr, msg.Seq, 0)
	}
}

// handleGetX services an exclusive-copy request at the home, applying the
// firewall write-access check (§3.3).
func (c *Controller) handleGetX(msg *coherence.Message) {
	if !c.firewallAllows(msg.Addr, msg.Req) {
		c.mFirewallDenied.Inc()
		c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "firewall-denied", 0, int64(msg.Addr), int64(msg.Req))
		c.reply(msg.Req, coherence.MsgBusErr, msg.Addr, msg.Seq, 0)
		return
	}
	e := c.Dir.Get(msg.Addr)
	switch e.State {
	case coherence.DirInvalid:
		e.State = coherence.DirExclusive
		e.Owner = msg.Req
		c.reply(msg.Req, coherence.MsgDataExcl, msg.Addr, msg.Seq, c.Mem.Read(msg.Addr))
	case coherence.DirShared:
		acks := e.Sharers.Count()
		if e.Sharers.Has(msg.Req) {
			acks--
		}
		if acks == 0 {
			// Requester is the only sharer (or none): grant directly.
			e.Sharers.Clear()
			e.State = coherence.DirExclusive
			e.Owner = msg.Req
			c.reply(msg.Req, coherence.MsgDataExcl, msg.Addr, msg.Seq, c.Mem.Read(msg.Addr))
			return
		}
		e.State = coherence.DirPendingInval
		e.PendingReq = int32(msg.Req)
		e.PendingExcl = true
		e.PendingSeq = msg.Seq
		e.AcksLeft = uint16(acks)
		e.Sharers.ForEach(func(id int) {
			if id != msg.Req {
				c.sendMsg(id, coherence.Message{Type: coherence.MsgInval, Addr: msg.Addr, Req: c.ID})
			}
		})
		e.Sharers.Clear()
	case coherence.DirExclusive:
		if e.Owner == msg.Req {
			// Owner re-requesting: its eviction PUT was overtaken by
			// this request; wait for the writeback and grant fresh.
			e.State = coherence.DirPendingRecall
			e.PendingReq = int32(msg.Req)
			e.PendingExcl = true
			e.PendingSeq = msg.Seq
			return
		}
		e.State = coherence.DirPendingRecall
		e.PendingReq = int32(msg.Req)
		e.PendingExcl = true
		e.PendingSeq = msg.Seq
		c.sendMsg(e.Owner, coherence.Message{Type: coherence.MsgRecall, Addr: msg.Addr, Req: c.ID})
	case coherence.DirPendingRecall, coherence.DirPendingInval:
		c.reply(msg.Req, coherence.MsgNak, msg.Addr, msg.Seq, 0)
	case coherence.DirIncoherent:
		c.reply(msg.Req, coherence.MsgBusErr, msg.Addr, msg.Seq, 0)
	}
}

// handlePut services a writeback at the home. The writeback carries the
// only valid copy of the line (§3.2).
func (c *Controller) handlePut(msg *coherence.Message) {
	e := c.Dir.Peek(msg.Addr)
	if e == nil {
		return // stale writeback for a reset line
	}
	switch {
	case e.Owner != msg.Req:
		// Stale PUT (e.g. crossing an invalidation); ignore.
	case e.State == coherence.DirPendingRecall && c.mode != ModeDrain:
		// The recalled owner's data arrives; complete the waiting
		// transaction.
		c.Mem.Write(msg.Addr, msg.Data)
		c.completeRecall(msg.Addr, c.Dir.Lookup(msg.Addr), msg.Data)
	case e.State == coherence.DirExclusive || e.State == coherence.DirPendingRecall:
		// An eviction, or during recovery any writeback of the owner:
		// folded home without the replies a pending transaction would
		// get (§4.4/§4.5); the aborted requester reissues afterwards and
		// the directory sweep resets whatever remains.
		c.Mem.Write(msg.Addr, msg.Data)
		c.Dir.Drop(msg.Addr)
	}
}

// completeRecall finishes a pending-recall transaction with the line data.
func (c *Controller) completeRecall(addr coherence.Addr, e *coherence.DirEntry, data uint64) {
	req, seq := int(e.PendingReq), e.PendingSeq
	if e.PendingExcl {
		e.State = coherence.DirExclusive
		e.Owner = req
		c.reply(req, coherence.MsgDataExcl, addr, seq, data)
	} else {
		e.State = coherence.DirShared
		e.Sharers.Clear()
		e.Sharers.Add(req)
		e.Owner = 0
		c.reply(req, coherence.MsgDataShared, addr, seq, data)
	}
}

// handleRecall services a home's recall at the owner.
func (c *Controller) handleRecall(msg *coherence.Message) {
	if c.cpuDead {
		// The cache is dead hardware: its copy cannot be produced, and a
		// RecallNak would let the home serve its stale memory copy as
		// valid data. Saying nothing leaves the home transaction pending,
		// so the requester's NAK counter or memory-op timeout triggers
		// recovery instead of consuming corrupt state.
		return
	}
	home := msg.Req // Recall carries the home in Req
	// The recall may have overtaken our own exclusive grant (it travels
	// on the request lane, the grant on the reply lane): merge it into
	// the outstanding miss and answer when the grant arrives. This must
	// be checked before the resident-copy path: an upgrade (GetX from
	// shared) leaves a clean shared copy in the cache, and answering the
	// recall with it would unlock the home's pending transaction with
	// stale data while our store commits into a copy the directory no
	// longer tracks — the committed value then vanishes without any
	// packet ever being lost.
	for _, m := range c.mshrs {
		if !m.uncached && m.excl && m.addr == msg.Addr {
			c.Cache.Invalidate(msg.Addr)
			m.recalled = true
			m.recallHome = home
			return
		}
	}
	if l := c.Cache.Invalidate(msg.Addr); l != nil {
		c.sendMsg(home, coherence.Message{
			Type: coherence.MsgPut, Addr: msg.Addr, Req: c.ID, Data: l.Token,
		})
		return
	}
	// Not resident: our eviction writeback is already ahead of this
	// reply in the same channel (in-order delivery).
	c.sendMsg(home, coherence.Message{Type: coherence.MsgRecallNak, Addr: msg.Addr, Req: c.ID})
}

// handleRecallNak resolves a recall whose target no longer held the line.
// In-order delivery guarantees the owner's eviction PUT was processed
// before this message, so a still-pending entry means the memory copy is
// current.
func (c *Controller) handleRecallNak(msg *coherence.Message) {
	e := c.Dir.Peek(msg.Addr)
	if e == nil || e.State != coherence.DirPendingRecall || e.Owner != msg.Req {
		return
	}
	c.completeRecall(msg.Addr, c.Dir.Lookup(msg.Addr), c.Mem.Read(msg.Addr))
}

// handleInval services an invalidation at a sharer. Sharers always ack,
// even if the line was silently evicted. An invalidation that overtook an
// in-flight shared grant marks the outstanding miss so the stale grant is
// consumed without being cached.
func (c *Controller) handleInval(msg *coherence.Message) {
	home := msg.Req
	c.Cache.Invalidate(msg.Addr)
	for _, m := range c.mshrs {
		if !m.uncached && !m.excl && m.addr == msg.Addr {
			m.invalidated = true
		}
	}
	c.sendMsg(home, coherence.Message{Type: coherence.MsgInvAck, Addr: msg.Addr, Req: c.ID})
}

// handleInvAck counts invalidation acks at the home and grants the pending
// exclusive request when the last one arrives.
func (c *Controller) handleInvAck(msg *coherence.Message) {
	e := c.Dir.Peek(msg.Addr)
	if e == nil || e.State != coherence.DirPendingInval {
		return
	}
	e = c.Dir.Lookup(msg.Addr)
	e.AcksLeft--
	if e.AcksLeft > 0 {
		return
	}
	req, seq := int(e.PendingReq), e.PendingSeq
	e.State = coherence.DirExclusive
	e.Owner = req
	c.reply(req, coherence.MsgDataExcl, msg.Addr, seq, c.Mem.Read(msg.Addr))
}

// handleReply completes (or retries) the requester's outstanding operation.
func (c *Controller) handleReply(msg *coherence.Message) {
	m := c.findMSHR(msg.Seq)
	if m == nil || m.addr != msg.Addr {
		// Aborted or stale. With a dead processor complex the grant's
		// data dies here — an in-flight exclusive grant may be the copy
		// the home's directory now accounts to this node — so the oracle
		// learns the line may legitimately be lost.
		if c.cpuDead && msg.Type.CarriesData() {
			c.discarded(msg)
			return
		}
		if msg.Type == coherence.MsgDataExcl && c.Net.Reliable() {
			// An orphaned grant behind a reliable fabric: drain
			// deferred it, or the fabric resent it, after recovery
			// aborted its operation. The home accounts the line to
			// this node, which never cached the grant, so the grant
			// goes straight back home, as FlushCache returns the
			// stash. A shared copy the aborted upgrade left behind
			// goes with it: the home will hold no entry for it.
			c.Cache.Invalidate(msg.Addr)
			c.sendMsg(c.Space.Home(msg.Addr), coherence.Message{
				Type: coherence.MsgPut, Addr: msg.Addr, Req: c.ID, Data: msg.Data,
			})
		}
		return
	}
	switch msg.Type {
	case coherence.MsgDataShared:
		if m.invalidated {
			// An invalidation overtook this grant: the load completes
			// (it is ordered before the conflicting write) but the
			// data must not linger in the cache.
			c.completeMSHR(m, Result{Token: msg.Data})
			return
		}
		c.install(msg.Addr, coherence.CacheShared, msg.Data)
		c.completeMSHR(m, Result{Token: msg.Data})
	case coherence.MsgDataExcl:
		tok := msg.Data
		if m.hasStore {
			tok = m.storeTok
		}
		if m.recalled {
			// A recall overtook this grant: honor it immediately by
			// writing the line straight back home instead of caching.
			c.sendMsg(m.recallHome, coherence.Message{
				Type: coherence.MsgPut, Addr: msg.Addr, Req: c.ID, Data: tok,
			})
			c.completeMSHR(m, Result{Token: tok})
			return
		}
		c.install(msg.Addr, coherence.CacheExclusive, tok)
		c.completeMSHR(m, Result{Token: tok})
	case coherence.MsgNak:
		c.mNAKsReceived.Inc()
		c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "nak-received", 0, int64(msg.Addr), int64(m.naks+1))
		m.naks++
		if m.naks >= c.cfg.nakLimit {
			// NAK counter overflow: likely deadlock after a failure
			// (Table 4.1).
			c.trigger(ReasonNAKOverflow)
			return
		}
		m.retry = c.E.AfterCall(timing.NAKRetryDelay, c.retryFn, nil, nil, m.seq)
	case coherence.MsgBusErr:
		c.completeMSHR(m, Result{Err: ErrBusError})
	}
}

// handleUncached services an uncached operation at its target, enforcing
// the cross-failure-unit access check for I/O device accesses (§3.3).
func (c *Controller) handleUncached(msg *coherence.Message) {
	if msg.IO && c.unit != nil && c.unit[msg.Req] != c.unit[c.ID] {
		c.cfg.Trace.Point(c.E.Now(), c.ID, "magic", "uncached-denied", 0, int64(msg.Req), 0)
		c.sendMsg(msg.Req, coherence.Message{Type: coherence.MsgUncachedErr, Req: msg.Req, Seq: msg.Seq})
		return
	}
	var result any
	var err error
	if c.uncachedHandler != nil {
		result, err = c.uncachedHandler(msg.Req, msg.UPayload)
	}
	ty := coherence.MsgUncachedReply
	if err != nil {
		ty = coherence.MsgUncachedErr
	}
	c.sendMsg(msg.Req, coherence.Message{Type: ty, Req: msg.Req, Seq: msg.Seq, UPayload: result})
}

// handleUncachedReply completes an uncached operation at its issuer.
func (c *Controller) handleUncachedReply(msg *coherence.Message) {
	m := c.findMSHR(msg.Seq)
	if m == nil || !m.uncached {
		return
	}
	m.timeout.Cancel()
	ucb := m.ucb // copied out: the callback may reuse the record
	c.dropMSHR(m)
	if ucb == nil {
		return
	}
	if msg.Type == coherence.MsgUncachedErr {
		ucb(nil, ErrBusError)
		return
	}
	ucb(msg.UPayload, nil)
}
