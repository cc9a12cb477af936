package core

import (
	"fmt"

	"flashfc/internal/interconnect"
)

// msgKind enumerates recovery protocol messages.
type msgKind uint8

const (
	// kPing drops the target into recovery and solicits a pong (§4.2).
	kPing msgKind = iota
	// kPong confirms the sender has started executing recovery code.
	kPong
	// kState is one dissemination-phase gossip round (§4.3).
	kState
	// kBarrierUp converges a BFT barrier toward the root.
	kBarrierUp
	// kBarrierDown releases a BFT barrier (or restarts the drain
	// agreement when Dirty is set, §4.4).
	kBarrierDown
	// kFlushDone is the all-to-all P4 barrier message; it travels on the
	// normal reply lane behind the sender's writebacks to exploit
	// in-order delivery (§4.5).
	kFlushDone
)

func (k msgKind) String() string {
	switch k {
	case kPing:
		return "ping"
	case kPong:
		return "pong"
	case kState:
		return "state"
	case kBarrierUp:
		return "barrier-up"
	case kBarrierDown:
		return "barrier-down"
	case kFlushDone:
		return "flush-done"
	default:
		return "?"
	}
}

// recMsg is the payload of a recovery packet, carried in the sender's
// record (recPacket) until the receiver's release point. A receiver that
// keeps a message past its delivery (a round's inbox, an early barrier
// message) keeps a copy. State is never part of a record: the snapshots a
// round's messages share are read-only once sent.
type recMsg struct {
	Kind  msgKind
	From  int
	Epoch int

	// kState fields:
	Round  int
	State  *sysState // sender's snapshot (or final state, for a lame-duck echo)
	Target int       // sender's current termination-round bound
	Hint   int       // BFT-height hint (0 = none), §4.3 scheduling optimization

	// Barrier fields:
	Barrier barrierKey
	Dirty   bool // drain phase-B: sender saw stalled traffic since voting
}

func (m *recMsg) String() string {
	return fmt.Sprintf("rec{%v from=%d ep=%d r=%d %v}", m.Kind, m.From, m.Epoch, m.Round, m.Barrier)
}

// bytes is the wire size of the message for serialization cost.
func (m *recMsg) bytes() int {
	if m.Kind == kState {
		return 16 + 4*m.State.words()
	}
	return 16
}

// RecoveryMessage describes the recovery message p carries, for
// diagnostics: its kind, its epoch and, for a gossip round's state, its
// round. ok is false for a packet that carries none.
func RecoveryMessage(p *interconnect.Packet) (kind string, epoch, round int, ok bool) {
	m, ok := p.Payload.(*recMsg)
	if !ok {
		return "", 0, 0, false
	}
	return m.Kind.String(), m.Epoch, m.Round, true
}
