package magic

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/sim"
)

// Snapshot is the durable MAGIC controller state at a quiescent, pre-fault
// point: the message sequence counter (which orders protocol replies), the
// normal-delivery watermark, the node-liveness view, and the firewall
// image. Transient state — the input queue, outstanding mshrs with their
// armed timers, orphaned grants — must be empty at a safe point, which
// Snapshot enforces; a fork rebuilds it empty.
type Snapshot struct {
	Seq                uint64
	LastNormalDelivery sim.Time
	NodeUp             coherence.NodeSet
	Firewall           map[coherence.Addr]coherence.NodeSet
}

// Snapshot captures the controller state, panicking unless the controller
// is quiescent: normal mode, idle, with no queued input, no outstanding
// operations, and no orphaned grants.
func (c *Controller) Snapshot() *Snapshot {
	switch {
	case c.mode != ModeNormal:
		panic(fmt.Sprintf("magic: snapshot of node %d in mode %v", c.ID, c.mode))
	case c.busy || len(c.input) > 0:
		panic(fmt.Sprintf("magic: snapshot of node %d with %d queued packets (busy=%v)", c.ID, len(c.input), c.busy))
	case len(c.mshrs) > 0:
		panic(fmt.Sprintf("magic: snapshot of node %d with %d outstanding ops", c.ID, len(c.mshrs)))
	case len(c.orphans) > 0:
		panic(fmt.Sprintf("magic: snapshot of node %d with %d orphaned grants", c.ID, len(c.orphans)))
	}
	fw := make(map[coherence.Addr]coherence.NodeSet, len(c.firewall))
	for page, writers := range c.firewall {
		fw[page] = writers.Clone()
	}
	return &Snapshot{
		Seq:                c.seq,
		LastNormalDelivery: c.lastNormalDelivery,
		NodeUp:             c.nodeUp.Clone(),
		Firewall:           fw,
	}
}

// Restore installs a snapshot's state on a freshly built controller for
// the same node. The firewall image is deep-copied so sibling forks never
// share mutable NodeSets.
func (c *Controller) Restore(s *Snapshot) {
	c.seq = s.Seq
	c.lastNormalDelivery = s.LastNormalDelivery
	copy(c.nodeUp, s.NodeUp)
	for page, writers := range s.Firewall {
		c.firewall[page] = writers.Clone()
	}
}
