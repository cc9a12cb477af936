package interconnect

import "fmt"

// Snapshot is the durable fabric state at a quiescent, pre-fault point:
// the drop count and the packet flow-id sequence (which seeds
// trace flow ids and the deterministic in-transit ordering). Everything
// else — channel queues, in-flight packets, blocked waiters, retained
// retransmissions — must be empty at a safe point, which Network.Snapshot
// enforces, so a fork rebuilds it from the topology instead of copying it.
type Snapshot struct {
	Dropped uint64
	FlowSeq uint64
	// FlowSeqR holds the per-region flow counters of a partitioned
	// fabric; nil on classic fabrics, keeping their snapshot format
	// unchanged.
	FlowSeqR []uint64 `json:",omitempty"`
}

// Snapshot captures the fabric state. It panics unless the fabric is
// quiescent (no queued, in-flight, blocked, or retained packets) and
// healthy (no failed routers or links, no isolation discards): machine
// snapshots are taken before any fault is injected.
func (n *Network) Snapshot() *Snapshot {
	n.mustQuiescent()
	s := &Snapshot{Dropped: n.Dropped(), FlowSeq: n.flowSeq}
	if n.flowSeqR != nil {
		s.FlowSeqR = append([]uint64(nil), n.flowSeqR...)
	}
	return s
}

// Restore installs a snapshot's state on a freshly built Network over the
// same topology and config.
func (n *Network) Restore(s *Snapshot) {
	n.dropped.Store(s.Dropped)
	n.flowSeq = s.FlowSeq
	if s.FlowSeqR != nil {
		copy(n.flowSeqR, s.FlowSeqR)
	}
}

// mustQuiescent panics with a description of the first piece of state that
// makes the fabric unsafe to snapshot.
func (n *Network) mustQuiescent() {
	if len(n.retained) > 0 {
		panic(fmt.Sprintf("interconnect: snapshot with %d retained packets", len(n.retained)))
	}
	for l, up := range n.linkUp {
		if !up {
			panic(fmt.Sprintf("interconnect: snapshot with failed link %d", l))
		}
	}
	for r := range n.routers {
		rs := &n.routers[r]
		if rs.failed {
			panic(fmt.Sprintf("interconnect: snapshot with failed router %d", r))
		}
		if rs.discardLocal {
			panic(fmt.Sprintf("interconnect: snapshot with local discard on router %d", r))
		}
		if len(rs.nodeWaiters) > 0 {
			panic(fmt.Sprintf("interconnect: snapshot with blocked deliveries at router %d", r))
		}
		for p, on := range rs.discard {
			if on {
				panic(fmt.Sprintf("interconnect: snapshot with discard on router %d port %d", r, p))
			}
			chans := n.portChans(r, p)
			for l := range chans {
				if ch := &chans[l]; len(ch.q) > 0 || ch.blocked || len(ch.waiters) > 0 || ch.inTransit != nil {
					panic(fmt.Sprintf("interconnect: snapshot with active channel r%d p%d lane %v", r, p, Lane(l)))
				}
			}
		}
	}
}
