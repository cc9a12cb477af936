// Package hive models the Hive operating system's fault-containment
// contract ([3][18], §3.3, §4.6) at the level the paper's end-to-end
// experiments exercise: the machine is partitioned into cells, one per
// hardware failure unit; each cell keeps its kernel data in memory of its
// own unit and firewalls it against remote exclusive fetches; cells
// communicate through an exactly-once RPC subsystem; and after hardware
// recovery the OS adjusts to the new configuration, scrubs incoherent
// pages, terminates applications with essential dependencies on dead
// cells, and resumes the survivors.
package hive

import (
	"fmt"

	"flashfc/internal/coherence"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/proc"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
)

// OS-model parameters, calibrated against the experiments (§5.2, §5.3).
const (
	// kernelPages is the number of kernel-data pages per cell, placed at
	// the bottom of the cell's boss-node memory and firewalled.
	kernelPages = 8
	// heartbeatInterval is how often each cell touches its kernel data; a
	// bus error on kernel data is a kernel panic.
	heartbeatInterval = 500 * sim.Microsecond
	// crossCheckInterval is how often each cell probes its ring neighbor
	// with an uncached no-op. A probe into a failed cell is how Hive
	// notices quiet failures: the memory-operation timeout on the probe
	// triggers hardware recovery (Table 4.1).
	crossCheckInterval = sim.Millisecond
	// bugCrashProb is the chance that the legacy incoherent-line bug
	// crashes a cell in a recovery that scrubbed incoherent lines.
	bugCrashProb = 0.08
	// osBaseTime and osPerCellTime shape the OS recovery duration, which
	// scales with the number of cells rather than nodes (§5.3).
	osBaseTime    = 5 * sim.Millisecond
	osPerCellTime = 1500 * sim.Microsecond
	// rpcRetry is the retransmission interval of the RPC subsystem.
	rpcRetry = 3 * sim.Millisecond
)

// Config tunes the Hive model.
type Config struct {
	// Cells is the number of cells; nodes are split into contiguous
	// equal ranges, one per cell (Fig 3.2).
	Cells int
	// LegacyIncoherentBug reenables the OS bugs the paper found in 8.4%
	// of its end-to-end runs (§5.2): mishandling of incoherent lines
	// during post-recovery cleanup crashes the cell with probability
	// bugCrashProb per recovery that encounters incoherent lines.
	LegacyIncoherentBug bool

	// bugCrashProb is the package constant; a test raises it to 1 to
	// make the crash certain.
	bugCrashProb float64
}

// DefaultConfig returns an experiment-calibrated Hive configuration.
func DefaultConfig(cells int) Config {
	return Config{Cells: cells, bugCrashProb: bugCrashProb}
}

// MachineConfig builds the machine configuration a Hive system needs:
// failure units matching the cells and the firewall enabled.
func MachineConfig(cells, nodesPerCell int, memBytes, l2Bytes uint64, seed int64) machine.Config {
	n := cells * nodesPerCell
	mc := machine.DefaultConfig(n)
	mc.Seed = seed
	mc.MemBytes = memBytes
	mc.L2Bytes = l2Bytes
	mc.Magic.FirewallEnabled = true
	units := make([]int, n)
	for i := range units {
		units[i] = i / nodesPerCell
	}
	mc.FailureUnits = units
	return mc
}

// Cell is one Hive kernel managing one failure unit.
type Cell struct {
	ID    int
	Nodes []int // member node ids; Nodes[0] is the boss
	h     *Hive

	alive     bool
	crashed   bool // software crash (kernel panic / legacy bug)
	crashWhy  string
	kernel    []coherence.Addr // kernel line addresses (heartbeat targets)
	hbIndex   int
	hbStopped bool

	// RPC state.
	rpcSeq   uint64
	pending  map[uint64]*rpcCall
	handlers map[string]func(from int, args any) (any, error)
	seen     map[string]any // exactly-once dedup: "cell:seq" -> cached reply
}

// Boss returns the cell's coordinating node id.
func (c *Cell) Boss() int { return c.Nodes[0] }

// Alive reports whether the cell is running (hardware up, no kernel panic).
func (c *Cell) Alive() bool { return c.alive && !c.crashed }

// Crashed reports whether the cell suffered a software crash, and why.
func (c *Cell) Crashed() (bool, string) { return c.crashed, c.crashWhy }

// suspended reports whether the cell's processors are paused by recovery;
// background OS activity (heartbeats, cross-checks, RPC retransmissions)
// waits it out.
func (c *Cell) suspended() bool { return c.h.M.Nodes[c.Boss()].CPU.Paused() }

func (c *Cell) String() string {
	return fmt.Sprintf("cell%d(nodes=%v alive=%v)", c.ID, c.Nodes, c.Alive())
}

// Hive is the whole operating system instance.
type Hive struct {
	M     *machine.Machine
	Cfg   Config
	Cells []*Cell

	// HWTime and OSTime record the durations of the last hardware and OS
	// recovery (Fig 5.7).
	HWTime, OSTime sim.Time
	// OnCellDeath observes cells dying (hardware or software).
	OnCellDeath func(c *Cell, why string)
}

// New attaches a Hive instance to m. The machine must have been built from
// MachineConfig (matching failure units, firewall on).
func New(m *machine.Machine, cfg Config) *Hive {
	if m.Cfg.Nodes%cfg.Cells != 0 {
		panic("hive: nodes must divide evenly into cells")
	}
	h := &Hive{M: m, Cfg: cfg}
	per := m.Cfg.Nodes / cfg.Cells
	for ci := 0; ci < cfg.Cells; ci++ {
		c := &Cell{
			ID: ci, h: h, alive: true,
			pending:  map[uint64]*rpcCall{},
			handlers: map[string]func(int, any) (any, error){},
			seen:     map[string]any{},
		}
		for k := 0; k < per; k++ {
			c.Nodes = append(c.Nodes, ci*per+k)
		}
		h.Cells = append(h.Cells, c)
		c.setupKernelPages()
		c.setupRPC()
	}
	m.OnAllRecovered = h.osRecover
	for _, c := range h.Cells {
		c.scheduleHeartbeat()
		c.scheduleCrossCheck()
	}
	return h
}

// CellOf returns the cell owning node id.
func (h *Hive) CellOf(node int) *Cell {
	per := h.M.Cfg.Nodes / h.Cfg.Cells
	return h.Cells[node/per]
}

// setupKernelPages places the cell's kernel data at the bottom of the boss
// node's memory and firewalls it: only member nodes get write access
// (§3.3). This is what protects kernel data from wild and speculative
// writes originating in other cells.
func (c *Cell) setupKernelPages() {
	boss := c.h.M.Nodes[c.Boss()]
	writers := coherence.NewNodeSet(c.h.M.Cfg.Nodes)
	for _, n := range c.Nodes {
		writers.Add(n)
	}
	base := c.h.M.Space.Base(c.Boss())
	for p := 0; p < kernelPages; p++ {
		page := base + coherence.Addr(p*timing.PageSize)
		boss.Ctrl.SetFirewall(page, writers)
		// One heartbeat line per page.
		c.kernel = append(c.kernel, page)
	}
}

// scheduleHeartbeat arranges the periodic kernel-data touch. A bus error on
// kernel data means the cell lost its own kernel state: kernel panic.
func (c *Cell) scheduleHeartbeat() {
	h := c.h
	var beat func()
	beat = func() {
		if !c.Alive() {
			return
		}
		if c.suspended() {
			h.M.E.After(heartbeatInterval, beat)
			return
		}
		addr := c.kernel[c.hbIndex%len(c.kernel)]
		c.hbIndex++
		tok := h.M.Oracle.NextToken()
		cpu := h.M.Nodes[c.Boss()].CPU
		cpu.Submit(proc.Op{Kind: proc.OpWrite, Addr: addr, Token: tok, Done: func(r magic.Result) {
			switch r.Err {
			case nil:
				h.M.Oracle.Wrote(addr, tok)
			case magic.ErrBusError:
				c.panic("kernel data lost (bus error on kernel page)")
			case magic.ErrAborted:
				// Recovery in progress; the next beat retries.
			}
		}})
		h.M.E.After(heartbeatInterval, beat)
	}
	h.M.E.After(heartbeatInterval, beat)
}

// scheduleCrossCheck arranges the periodic aliveness probes: the boss
// rotates over the cell's own member nodes (a multiprocessor kernel notices
// a silent member through its own scheduling and IPIs) and the next cell's
// boss in the ring. The probes are plain uncached operations; probing a
// dead or wedged controller runs into the memory-operation timeout, which
// is what drops this node into recovery (Table 4.1).
func (c *Cell) scheduleCrossCheck() {
	h := c.h
	// Probe targets: own members (excluding the boss) plus the ring
	// neighbor's boss.
	var targets []int
	for _, n := range c.Nodes[1:] {
		targets = append(targets, n)
	}
	if len(h.Cells) > 1 {
		targets = append(targets, h.Cells[(c.ID+1)%len(h.Cells)].Boss())
	}
	if len(targets) == 0 {
		return
	}
	idx := 0
	var check func()
	check = func() {
		if !c.Alive() {
			return
		}
		// Probe unless this cell's own processors are held by recovery.
		// A dead-but-undeclared target is exactly what the probe must
		// find: its timeout is the detection mechanism.
		if !c.suspended() {
			target := targets[idx%len(targets)]
			idx++
			boss := h.M.Nodes[c.Boss()]
			// Targets the node map already declares dead need no probe.
			if boss.Ctrl.NodeUp(target) {
				boss.Ctrl.SendUncached(target, false, false, "hive-alive?", func(any, error) {})
			}
		}
		h.M.E.After(crossCheckInterval, check)
	}
	h.M.E.After(crossCheckInterval, check)
}

// panic crashes the cell for a software reason.
func (c *Cell) panic(why string) {
	if c.crashed || !c.alive {
		return
	}
	c.crashed = true
	c.crashWhy = why
	for _, n := range c.Nodes {
		c.h.M.Nodes[n].CPU.Pause()
	}
	if c.h.OnCellDeath != nil {
		c.h.OnCellDeath(c, why)
	}
	c.failPendingRPCs(fmt.Errorf("hive: cell %d crashed: %s", c.ID, why))
}

// hardwareDeath marks the cell dead after its failure unit was lost.
func (c *Cell) hardwareDeath(why string) {
	if !c.alive {
		return
	}
	c.alive = false
	if c.h.OnCellDeath != nil {
		c.h.OnCellDeath(c, why)
	}
	c.failPendingRPCs(fmt.Errorf("hive: cell %d down: %s", c.ID, why))
}
