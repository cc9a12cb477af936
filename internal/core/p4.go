package core

import (
	"flashfc/internal/interconnect"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/trace"
)

// Phase 4: cache coherence protocol recovery (§4.5): with every node's
// controller in flush mode (barrier) — here the drain mode it has been in
// since recovery entry, magic.ModeDrain standing for both — every node
// flushes its processor cache sending all dirty lines home, joins an
// all-to-all barrier that rides the normal lanes behind the writebacks
// (in-order delivery ⇒ every writeback destined to a node precedes that
// node's barrier message), sweeps its directory marking lost lines
// incoherent, and barriers once more before normal operation resumes.
//
// The fabric keeps the lane's order up to the home's controller; the
// controller keeps it from there: a flush-done waits in its input queue
// behind the writebacks that arrived before it and reaches the agent only
// once they have been handled (magic.Controller.process). A home whose
// handlers are slowed therefore sweeps a directory that already holds
// every survivor's writebacks, and marks exactly what the failed
// components held.

func (a *Agent) startCoherenceRecovery() {
	a.setPhase(PhaseCoherence)
	a.passBarrier(barrierKey{kind: barP4Mode})
}

// traceScanChunks subdivides a known-duration sweep window into span
// chunks for the trace without perturbing the simulation: the sweep
// occupies [start, start+d) of processor time uniformly, so the chunk
// boundaries are computed, not scheduled.
func (a *Agent) traceScanChunks(parent trace.SpanID, d sim.Time) {
	tr := a.cfg.Trace
	if tr == nil || parent == 0 || d <= 0 {
		return
	}
	start := a.E.Now()
	if a.busyUntil > start {
		start = a.busyUntil
	}
	const chunks = 8
	for i := sim.Time(0); i < chunks; i++ {
		id := tr.Begin(start+d*i/chunks, a.ID, "scan-chunk", parent, int64(i))
		tr.End(start+d*(i+1)/chunks, id)
	}
}

// doFlush iterates the whole second-level cache (cost scales with the
// configured L2 size, Fig 5.6 left) and sends every exclusive line home.
// With a hardwired controller the processor drives the flush through
// uncached controller accesses, costing extra instructions per line (§6.2).
//
// Behind a reliable fabric (§6.3) no writeback was ever lost, so there is
// no flush: only the directory sweep remains, and caches stay warm across
// recovery, except for copies of lines whose home is gone, which each
// cache drops (DESIGN §6).
func (a *Agent) doFlush() {
	if a.Net.Reliable() {
		a.report.FlushEnd = a.E.Now()
		a.doScan()
		return
	}
	perLine := timing.InstrFlushPerLine
	if a.cfg.HardwiredController {
		perLine = timing.InstrHardwiredFlushPerLine
	}
	charge := a.Ctrl.Cache.CapacityLines() * perLine
	spFlush := a.cfg.Trace.Begin(a.E.Now(), a.ID, "cache-flush", a.spPhase, 0)
	a.execInstr(charge, func() {
		a.report.Writebacks = a.Ctrl.FlushCache()
		a.report.FlushEnd = a.E.Now()
		a.cfg.Trace.End(a.E.Now(), spFlush)
		a.spFlushWait = a.cfg.Trace.Begin(a.E.Now(), a.ID, "flush-barrier", a.spPhase, 0)
		a.sendFlushDone()
		a.noteFlushDone(a.ID)
		a.checkFlushBarrier()
	})
}

// sendFlushDone starts the all-to-all barrier: one message to every other
// participant on the normal reply lane, behind this node's writebacks,
// sent as one fabric fan-out. The template is a record of the agent's own,
// which names its owner for takeFanOut and is never released: the fabric
// keeps it, and the participant list, until the last packet is
// materialised. The list is the memo's, read-only, so no later epoch
// writes to it.
func (a *Agent) sendFlushDone() {
	t := a.takeRec()
	t.msg = recMsg{Kind: kFlushDone, From: a.ID, Epoch: a.epoch}
	t.pkt = interconnect.Packet{Src: a.ID, Lane: interconnect.LaneReply, Bytes: t.msg.bytes(),
		Payload: &t.msg, Rec: t}
	a.Net.SendEach(&t.pkt, a.conv.parts, takeFanOut)
}

// onFlushDone records a peer's flush completion. Arrivals may precede this
// node's own flush; the count is consulted when both sides are ready. A
// finished agent, its flush barrier passed, has nothing to record.
func (a *Agent) onFlushDone(m *recMsg) {
	a.noteFlushDone(m.From)
	a.checkFlushBarrier()
}

// noteFlushDone marks node from's flush done this epoch, counting it once
// if it is a participant. A flush-done that arrives before the participant
// list is fixed is counted by finishDissemination instead.
func (a *Agent) noteFlushDone(from int) {
	if a.flushSeen == nil || a.flushSeen.Has(from) {
		return
	}
	a.flushSeen.Add(from)
	if a.conv != nil && a.conv.partSet.Has(from) {
		a.flushCount++
	}
}

// checkFlushBarrier releases the directory sweep once this node's own flush
// is done and every participant's flush-done has been seen.
func (a *Agent) checkFlushBarrier() {
	if a.phase != PhaseCoherence || a.scanned || !a.flushSeen.Has(a.ID) ||
		a.flushCount < len(a.conv.parts) {
		return
	}
	a.scanned = true
	a.doScan()
}

// doScan sweeps this node's directory (cost scales with the per-node
// memory size, Fig 5.6 right): lines still cached exclusive have lost
// their only valid copy and are marked incoherent. A hardwired controller
// cannot run the sweep itself: the processor reads the exposed directory
// state through uncached accesses, several times slower (§6.2).
func (a *Agent) doScan() {
	a.cfg.Trace.End(a.E.Now(), a.spFlushWait)
	a.spFlushWait = 0
	d := sim.Time(a.Ctrl.Space.Lines()) * timing.DirScanPerLine
	if a.cfg.HardwiredController {
		d = sim.Time(a.Ctrl.Space.Lines()*timing.InstrHardwiredScanPerLine) * a.cfg.UncachedInstr
	}
	a.sweepDirectory(d)
}

// sweepDirectory charges d of processor time for the directory sweep, then
// records the lines it marked incoherent — by liveness alone behind a
// reliable interconnect — and joins P4's last barrier.
func (a *Agent) sweepDirectory(d sim.Time) {
	spScan := a.cfg.Trace.Begin(a.E.Now(), a.ID, "dir-scan", a.spPhase, 0)
	a.traceScanChunks(spScan, d)
	a.execTime(d, func() {
		if a.Net.Reliable() {
			a.Ctrl.DropUnreachableLines()
			a.report.Incoherent = len(a.Ctrl.ScanDirectoryLiveness())
		} else {
			a.report.Incoherent = len(a.Ctrl.ScanDirectory())
		}
		a.cfg.Trace.End(a.E.Now(), spScan)
		a.passBarrier(barrierKey{kind: barP4Done})
	})
}

// finishRecovery resumes normal operation — or shuts the node down if its
// failure unit lost a component (§4.3).
func (a *Agent) finishRecovery() {
	a.report.P4End = a.E.Now()
	a.watchdog.Cancel()
	root := a.conv.root // setPhase drops the memo entry
	if a.doomed {
		a.report.ShutDown = true
		a.setPhase(PhaseShutdown)
		a.Ctrl.SetMode(magic.ModeDead)
	} else {
		a.setPhase(PhaseDone)
		a.Ctrl.SetMode(magic.ModeNormal)
	}
	if a.Net.Reliable() && a.ID == root && !a.doomed {
		// Once everyone has resumed, the fabric's end-to-end machinery
		// resends what the failure destroyed (§6.3). The short delay
		// models the hardware retransmission timer and guarantees all
		// controllers are back in normal mode.
		a.E.After(sim.Millisecond, func() {
			a.Net.RetransmitLost(a.Ctrl.NodeUp)
		})
	}
	if a.cfg.OnComplete != nil {
		a.cfg.OnComplete(a.report)
	}
}
