package hive

import (
	"slices"

	"flashfc/internal/coherence"
	"flashfc/internal/core"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
)

// OS recovery (§4.6): after the hardware recovery algorithm completes, the
// node controllers raise an interrupt and Hive adjusts its internal state
// before letting user processes continue: dead cells are declared, internal
// tables reflect the new configuration, incoherent pages are scrubbed
// through the MAGIC service, and applications with essential dependencies
// on dead cells are terminated (the workload layer observes cell deaths).
//
// OS recovery time scales with the number of cells rather than nodes
// (§5.3), plus the page scrub work.

// osRecover is installed as machine.OnAllRecovered.
func (h *Hive) osRecover(reports map[int]*core.Report) {
	hwStart := h.M.E.Now()
	var earliest sim.Time = -1
	for _, r := range reports {
		if earliest < 0 || r.Start < earliest {
			earliest = r.Start
		}
	}
	if earliest >= 0 {
		h.HWTime = hwStart - earliest
	}

	// Declare cells whose failure unit was lost.
	live := h.M.Liveness()
	aliveCells := 0
	for _, c := range h.Cells {
		if !c.alive {
			continue
		}
		if slices.ContainsFunc(c.Nodes, func(n int) bool { return !live.Healthy(n) }) {
			c.hardwareDeath("failure unit lost a component")
			continue
		}
		aliveCells++
	}

	// Per-cell recovery work: configuration adjustment plus the page
	// scrub of incoherent lines left in the cell's memory.
	osWork := osBaseTime + sim.Time(aliveCells)*osPerCellTime
	maxScrub := sim.Time(0)
	for _, c := range h.Cells {
		if !c.Alive() {
			continue
		}
		// Kernel pages are never silently scrubbed: losing kernel data
		// means the cell cannot continue (§3.3).
		kernelPage := map[coherence.Addr]bool{}
		for _, k := range c.kernel {
			kernelPage[k.Page()] = true
		}
		scrubbed := 0
		pages := map[coherence.Addr]bool{}
		for _, n := range c.Nodes {
			node := h.M.Nodes[n]
			node.Dir.ForEach(func(a coherence.Addr, e *coherence.DirEntry) {
				if e.State == coherence.DirIncoherent {
					pages[a.Page()] = true
				}
			})
			for page := range pages {
				if !node.Mem.Owns(page) || kernelPage[page] {
					continue
				}
				k := node.Ctrl.ScrubPage(page)
				scrubbed += k
				for off := coherence.Addr(0); off < timing.PageSize; off += timing.LineSize {
					h.M.Oracle.Scrubbed(page + off)
				}
				pages[page] = false
			}
		}
		scrubTime := sim.Time(len(pages)*timing.InstrOSPageScan*timing.LinesPerPage) * timing.MagicCycle
		if scrubTime > maxScrub {
			maxScrub = scrubTime
		}
		if scrubbed > 0 && h.Cfg.LegacyIncoherentBug {
			// The paper's end-to-end failures (§5.2): OS bugs in the
			// handling of incoherent lines after a fault.
			if h.M.E.Rand().Float64() < h.Cfg.bugCrashProb {
				c.panic("legacy bug: mishandled incoherent line during cleanup")
			}
		}
	}
	osWork += maxScrub

	h.M.E.After(osWork, func() {
		h.OSTime = h.M.E.Now() - hwStart
		// Resume user processes on the surviving cells.
		for _, c := range h.Cells {
			if !c.Alive() {
				continue
			}
			for _, n := range c.Nodes {
				h.M.Nodes[n].CPU.Resume()
			}
		}
	})
}
