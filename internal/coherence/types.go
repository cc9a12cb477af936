// Package coherence holds the data model of the FLASH directory-based cache
// coherence protocol: the global physical address space split across home
// nodes, per-node memories and second-level caches, the per-line directory
// state kept at the home (§2), and the protocol message vocabulary. The
// protocol *logic* (the MAGIC handlers) lives in package magic; this package
// is the state it operates on.
//
// Line data is modeled as a 64-bit token rather than 128 bytes of payload:
// fault-containment verification only needs value identity (did the line
// keep the last written value, or was it correctly reported incoherent?).
package coherence

import (
	"fmt"
	"math/bits"

	"flashfc/internal/timing"
)

// Addr is a physical byte address in the machine's global address space.
// Node n is the home of addresses [n*MemBytes, (n+1)*MemBytes).
type Addr uint64

// Line returns the line-aligned base address of a.
func (a Addr) Line() Addr { return a &^ (timing.LineSize - 1) }

// Page returns the page-aligned base address of a (firewall granularity).
func (a Addr) Page() Addr { return a &^ (timing.PageSize - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// AddrSpace describes the machine's physical memory layout.
type AddrSpace struct {
	Nodes    int
	MemBytes uint64 // per-node memory size
	// VectorTop is the top of the replicated exception-vector range: all
	// references below it are remapped to the local node (§3.2).
	VectorTop Addr
}

// Home returns the home node of address a.
func (s AddrSpace) Home(a Addr) int { return int(uint64(a) / s.MemBytes) }

// Base returns the first address homed on node n.
func (s AddrSpace) Base(n int) Addr { return Addr(uint64(n) * s.MemBytes) }

// Contains reports whether a falls inside the machine's address space.
func (s AddrSpace) Contains(a Addr) bool {
	return uint64(a) < uint64(s.Nodes)*s.MemBytes
}

// Lines returns the number of coherence lines per node.
func (s AddrSpace) Lines() int { return int(s.MemBytes / timing.LineSize) }

// Remap applies the exception-vector remap of node n: references into the
// vector range are converted to node-local references so that no node
// depends on another node's memory for its exception vectors (§3.2).
func (s AddrSpace) Remap(n int, a Addr) Addr {
	if a < s.VectorTop {
		return s.Base(n) + a
	}
	return a
}

// NodeSet is a bitset of node ids, used for firewall access-control lists,
// MAGIC's node maps and a directory line's sharers past three.
type NodeSet []uint64

// NewNodeSet returns an empty set sized for n nodes.
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

// Add inserts node id.
func (s NodeSet) Add(id int) { s[id/64] |= 1 << (uint(id) % 64) }

// Remove deletes node id.
func (s NodeSet) Remove(id int) { s[id/64] &^= 1 << (uint(id) % 64) }

// Has reports membership of node id.
func (s NodeSet) Has(id int) bool { return s[id/64]&(1<<(uint(id)%64)) != 0 }

// Count returns the number of members.
func (s NodeSet) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in ascending order.
func (s NodeSet) ForEach(fn func(id int)) {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(i*64 + bits.TrailingZeros64(w))
		}
	}
}

// Clone returns an independent copy.
func (s NodeSet) Clone() NodeSet { return append(NodeSet(nil), s...) }
