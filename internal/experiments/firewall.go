package experiments

import (
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
)

// §6.2: the firewall's only normal-mode cost is the access-permission check
// added to the handlers servicing intercell writes; the paper measures the
// average increase in intercell write cache-miss latency at under 7% of the
// fastest internode write miss.

// FirewallLatency measures the latency of an intercell write miss with the
// firewall on or off.
func FirewallLatency(on bool, seed int64) sim.Time {
	mc := machine.DefaultConfig(4)
	mc.Seed = seed
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	mc.Magic.FirewallEnabled = on
	mc.FailureUnits = []int{0, 0, 1, 1}
	m := machine.New(mc)
	// Node 2 (unit 1) writes a line homed on node 0 (unit 0): an
	// intercell write miss.
	addr := m.Space.Base(0) + 0x2000
	start := m.E.Now()
	var end sim.Time
	m.Nodes[2].Ctrl.Write(addr, 1, func(r magic.Result) {
		if r.Err != nil {
			panic("firewall latency probe failed: " + r.Err.Error())
		}
		end = m.E.Now()
	})
	m.E.Run()
	return end - start
}
