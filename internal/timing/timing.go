// Package timing centralizes the latency and cost constants that calibrate
// the flashfc simulation against the FLASH hardware numbers reported in the
// paper (ISCA '97, §3.1, §4.1, §5.3). All values are simulated nanoseconds
// (sim.Time) or instruction counts.
package timing

import "flashfc/internal/sim"

// Clock periods.
const (
	// MagicCycle is one cycle of the 100 MHz MAGIC protocol processor.
	MagicCycle sim.Time = 10
	// CPUCycle is one cycle of the 200 MHz main processor.
	CPUCycle sim.Time = 5
)

// MAGIC handler occupancies. The paper (§3.1) states the remote-read handler
// takes under 120 ns = 24 protocol-processor instructions; we charge that for
// common handlers and proportionally more for handlers that touch several
// directory entries or send multiple messages.
const (
	// HandlerCommon is the occupancy of a common coherence handler
	// (read request, data reply, writeback).
	HandlerCommon = 12 * MagicCycle // 120 ns
	// HandlerInvalidate covers a handler that must fan out invalidations;
	// charged per destination on top of HandlerCommon.
	HandlerPerInvalidation = 4 * MagicCycle
	// HandlerFirewallCheck is the extra occupancy added to intercell
	// write-miss handlers when the firewall is enabled (§6.2: the measured
	// latency increase is below 7% of the fastest internode write miss).
	HandlerFirewallCheck = 3 * MagicCycle // 30 ns
	// HandlerRecoveryOp is the occupancy of MAGIC-side recovery support
	// operations (node-map update, directory poke).
	HandlerRecoveryOp = 20 * MagicCycle
)

// Interconnect latencies, modeled on CrayLink/SPIDER numbers.
const (
	// RouterHop is the pipeline latency through one SPIDER router.
	RouterHop sim.Time = 40
	// LinkWire is the propagation delay of one link.
	LinkWire sim.Time = 10
	// LinkBytePeriod is the serialization time per byte at ~800 MB/s.
	LinkBytePeriod sim.Time = 1 // 1 ns/byte -> 1 GB/s, close enough
	// HeaderBytes is the packet header size used for serialization cost.
	HeaderBytes = 16
)

// Uncached execution. During recovery the R10000 runs entirely from uncached
// space; the paper reports 320 ns per uncached instruction under
// SimOS/FlashLite and 390 ns under the cycle-accurate RTL model (§5.3),
// slowing the processor to under 2.5 MIPS.
const (
	UncachedInstrSimOS sim.Time = 320
	UncachedInstrRTL   sim.Time = 390
)

// Recovery-code instruction budgets. These charge the recovery algorithm's
// local computation as instruction counts executed at the uncached rate.
const (
	// InstrRecoveryEntry is the cost of dropping into the recovery
	// handler: fielding the forced Cache Error, saving state, switching to
	// uncached mode.
	InstrRecoveryEntry = 220
	// InstrProbeSetup is the per-probe bookkeeping during cwn discovery.
	InstrProbeSetup = 60
	// InstrGossipPerWord is the per-32-bit-word cost of serializing the
	// dissemination-phase state (charged once per round) and of the
	// single merge pass over the received states.
	InstrGossipPerWord = 3
	// InstrGossipRoundFixed is the fixed per-round setup cost.
	InstrGossipRoundFixed = 120
	// InstrGossipPerNeighbor is the per-destination send cost of one
	// round (packet construction and launch).
	InstrGossipPerNeighbor = 120
	// InstrBFTPerEdge is the per-edge cost of the breadth-first-tree
	// computation used for the diameter bound and barriers.
	InstrBFTPerEdge = 14
	// InstrRouteTablePerEntry is the per-destination cost of computing a
	// new routing-table entry during interconnect recovery.
	InstrRouteTablePerEntry = 24
	// InstrFlushPerLine is the per-line cost of the cache flush loop
	// (index op, cache op, conditional writeback).
	InstrFlushPerLine = 3
	// InstrBarrierStep is the cost of one barrier arrival/release step.
	InstrBarrierStep = 40
	// InstrOSPageScan is the per-page cost of the Hive incoherent-line
	// page scrub during OS recovery.
	InstrOSPageScan = 9
	// InstrHardwiredFlushPerLine and InstrHardwiredScanPerLine are the
	// per-line costs when a hardwired node controller exposes its state
	// and the main processor performs the P4 work through uncached
	// accesses (§6.2's minimum-support variant).
	InstrHardwiredFlushPerLine = 6
	InstrHardwiredScanPerLine  = 4
)

// Directory-scan cost: the protocol processor scans its directory during P4.
// Charged per 128-byte line of local memory. 34 MAGIC cycles/line gives the
// linear memory-size scaling of Fig 5.6 (16 MB/node ≈ 45 ms).
const DirScanPerLine = 34 * MagicCycle

// Protocol-level timeouts and thresholds (Table 4.1 triggers).
const (
	// MemOpTimeout is how long a node controller waits for a reply to an
	// outstanding memory operation before triggering recovery.
	MemOpTimeout = 500 * sim.Microsecond
	// NAKRetryDelay is the backoff before a NAKed request is retried.
	NAKRetryDelay = 2 * sim.Microsecond
	// NAKLimit is the NAK-counter overflow threshold.
	NAKLimit = 4096
	// ProbeTimeout bounds a recovery probe or ping round trip.
	ProbeTimeout = 20 * sim.Microsecond
	// DrainTau is the τ bound between consecutive deliveries of stalled
	// packets used by the interconnect-drain agreement (§4.4).
	DrainTau = 50 * sim.Microsecond
	// PingTimeout bounds how long a recovering node waits for a pong: it
	// must cover the target's recovery-entry time (~70 µs of uncached
	// execution).
	PingTimeout = 400 * sim.Microsecond
	// WatchdogTimeout restarts recovery (with a higher epoch) when an
	// agent has neither heard a message of its epoch nor run charged
	// recovery code for this long — the §4.1 reaction to additional
	// failures during recovery.
	WatchdogTimeout = 150 * sim.Millisecond
	// RecoveryHeadDrop is how long a source-routed recovery packet may
	// stay blocked at the head of a channel before it is discarded, the
	// §4.1 mechanism that keeps the recovery lanes from congesting.
	RecoveryHeadDrop = 10 * sim.Microsecond
)

// QuorumFraction is the §4.2 split-brain heuristic: a node that ends
// dissemination in a component holding less than this fraction of the
// machine shuts itself down instead of recovering a minority island.
const QuorumFraction = 0.5

// Node and fabric latencies and buffer sizes.
const (
	// CacheHitTime is the latency of a local L2 hit.
	CacheHitTime sim.Time = 50
	// LoopbackDelay is the delivery delay of a node-to-self packet.
	LoopbackDelay sim.Time = 60
	// DeliveryRetry is the backoff before the fabric retries a delivery
	// the node controller refused because its input queue was full.
	DeliveryRetry = sim.Microsecond
	// InputQueue is the node controller's input buffer in packets; when
	// full, deliveries are refused and back up into the fabric.
	InputQueue = 16
	// LaneBuffer is the per-channel, per-lane buffer capacity of a router
	// in packets.
	LaneBuffer = 4
	// CPUWindow is the number of outstanding misses per processor.
	CPUWindow = 4
)

// Machine geometry constants.
const (
	// LineSize is the coherence-line size in bytes.
	LineSize = 128
	// PageSize is the firewall access-control granularity.
	PageSize = 4096
	// LinesPerPage is PageSize / LineSize.
	LinesPerPage = PageSize / LineSize
)
