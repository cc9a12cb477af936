package machine

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/core"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
)

// VerifyResult is the outcome of the §5.2 post-recovery memory sweep: every
// line in the system must either hold its last committed value, be reported
// incoherent (bus error) only if it may legitimately have been lost, or —
// when its home node is gone — fail with a bus error from the node map.
type VerifyResult struct {
	LinesChecked   int
	CorrectData    int
	Incoherent     int              // bus errors on lines whose loss is justified
	InaccessibleOK int              // bus errors on lines homed on dead nodes
	WrongData      []coherence.Addr // returned data != last committed value
	OverMarked     []coherence.Addr // bus error without a justifying loss
	MissingBusErr  []coherence.Addr // dead-home line that returned data
	Pending        int              // reads that never completed (harness error)
}

// OK reports whether the sweep found no anomalies.
func (v *VerifyResult) OK() bool {
	return len(v.WrongData) == 0 && len(v.OverMarked) == 0 &&
		len(v.MissingBusErr) == 0 && v.Pending == 0
}

func (v *VerifyResult) String() string {
	return fmt.Sprintf("verify{checked=%d correct=%d incoherent=%d inaccessible=%d wrong=%d overmarked=%d missingBE=%d pending=%d}",
		v.LinesChecked, v.CorrectData, v.Incoherent, v.InaccessibleOK,
		len(v.WrongData), len(v.OverMarked), len(v.MissingBusErr), v.Pending)
}

// verifySweep is the state of one VerifyMemory call. Every line's read
// completes through the one bound lineDone, which gets the line's address
// from the CPU: a sweep costs one object and one method value, not a
// closure per line.
type verifySweep struct {
	m    *Machine
	res  *VerifyResult
	cpu  *proc.CPU
	ctrl *magic.Controller
	done func(coherence.Addr, magic.Result)
}

func (s *verifySweep) lineDone(addr coherence.Addr, r magic.Result) {
	if r.Err == magic.ErrAborted {
		// A concurrent recovery aborted the read; reissue it (the
		// sweep is idempotent). It queues behind every line not yet
		// issued.
		s.cpu.Submit(proc.Op{Kind: proc.OpRead, Addr: addr, DoneAt: s.done})
		return
	}
	s.res.Pending--
	home := s.m.Space.Home(addr)
	// A home whose processor died but whose memory bank still answers
	// (CPU-fail/memory-survives) is held to live-home standards: salvaged
	// clean lines must read back correctly, not hide behind a blanket bus
	// error.
	s.m.classify(s.res, addr, s.ctrl.NodeUp(home) || s.ctrl.MemReachable(home), r)
}

// sweepStall is how much simulated time outside recovery a sweep waits
// without a read completing before it gives up and reports the reads still
// outstanding as Pending. Recovery time does not count: a recovery aborts
// the reads in flight, and they complete once it ends. Nor does it restart
// the count, because a read that never completes times out and triggers a
// recovery of its own every few milliseconds. The longest gap between two
// completions, over the repository's tests and the six benchmark
// workloads, is 33 µs.
const sweepStall = 10 * sim.Millisecond

// VerifyMemory sweeps every line of the system's memory from the reader
// node, driving the simulation to completion. stride selects every
// stride-th line (1 = full sweep) so large configurations stay tractable.
// The reads are queued as one range per home, which the CPU issues a window
// at a time. A wedged controller can keep generating retry events forever,
// so the drive ends once sweepStall passes without a completion.
func (m *Machine) VerifyMemory(reader int, stride int) *VerifyResult {
	if stride < 1 {
		stride = 1
	}
	perHome := (int(m.Cfg.MemBytes/128) + stride - 1) / stride
	res := &VerifyResult{LinesChecked: m.Cfg.Nodes * perHome, Pending: m.Cfg.Nodes * perHome}
	cpu := m.Nodes[reader].CPU
	sweep := &verifySweep{m: m, res: res, cpu: cpu, ctrl: m.Nodes[reader].Ctrl}
	sweep.done = sweep.lineDone
	// Every read of a home that answers gives that home's directory an
	// entry and the reader's cache a line: size both once, up front.
	m.Nodes[reader].Cache.Reserve(res.LinesChecked)
	for home := 0; home < m.Cfg.Nodes; home++ {
		if sweep.ctrl.NodeUp(home) || sweep.ctrl.MemReachable(home) {
			m.Nodes[home].Dir.Reserve(perHome)
		}
		cpu.SubmitReads(m.Space.Base(home), perHome, coherence.Addr(stride*128), sweep.done)
	}
	var stalled sim.Time
	for res.Pending > 0 && cpu.Inflight()+cpu.QueueLen() > 0 && stalled < sweepStall {
		pending := res.Pending
		m.Advance(m.Now() + sim.Millisecond)
		switch {
		case res.Pending < pending:
			stalled = 0
		case !m.recovering():
			stalled += sim.Millisecond
		}
	}
	m.Advance(m.Now() + 10*sim.Millisecond)
	return res
}

// recovering reports whether the recovery agent of any survivor is
// between entering recovery and finishing it.
func (m *Machine) recovering() bool {
	for _, id := range m.Survivors() {
		if p := m.Nodes[id].Agent.Phase(); p != core.PhaseIdle && p != core.PhaseDone && p != core.PhaseShutdown {
			return true
		}
	}
	return false
}

func (m *Machine) classify(res *VerifyResult, addr coherence.Addr, homeUp bool, r magic.Result) {
	switch {
	case !homeUp:
		if r.Err == magic.ErrBusError {
			res.InaccessibleOK++
		} else {
			res.MissingBusErr = append(res.MissingBusErr, addr)
		}
	case r.Err == magic.ErrBusError:
		if m.Oracle.MayBeLost(addr) {
			res.Incoherent++
		} else {
			res.OverMarked = append(res.OverMarked, addr)
		}
	case r.Err != nil:
		res.WrongData = append(res.WrongData, addr)
	case r.Token == m.Oracle.ExpectedToken(addr):
		res.CorrectData++
	default:
		res.WrongData = append(res.WrongData, addr)
	}
}
