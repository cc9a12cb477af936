package magic

import (
	"runtime"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
	"flashfc/internal/sim"
	"flashfc/internal/timing"
	"flashfc/internal/topology"
)

// bytesPer returns the heap bytes one call of fn allocates, averaged over
// runs calls.
func bytesPer(runs int, fn func()) float64 {
	fn() // let maps and pools reach their steady size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// What a directory line and a controller's node maps cost must not grow
// with the machine: the paper's containment claim is for thousands of
// nodes, and per-node state that grows with N stops it being affordable
// there.
func TestFootprintIndependentOfMachineSize(t *testing.T) {
	const lines = 512
	// newLines builds lines fresh directory lines on a directory of the
	// given size, each shared by sharers of the top nodes.
	newLines := func(nodes, sharers int) func() {
		return func() {
			d := coherence.NewDirectory(nodes)
			d.SetHome(0, lines)
			for i := 0; i < lines; i++ {
				e := d.Get(coherence.Addr(i) * timing.LineSize)
				e.State = coherence.DirShared
				for s := 1; s <= sharers; s++ {
					e.Sharers.Add(nodes - s)
				}
			}
		}
	}

	t.Run("line-bytes", func(t *testing.T) {
		small, big := bytesPer(20, newLines(8, 1)), bytesPer(20, newLines(1024, 1))
		if diff := (big - small) / lines; diff > 1 || diff < -1 {
			t.Fatalf("a one-sharer line costs %.1f B at 1 024 nodes, %.1f B at 8", big/lines, small/lines)
		}
	})

	t.Run("line-allocs", func(t *testing.T) {
		d := coherence.NewDirectory(1024)
		d.SetHome(0, lines)
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 64; i++ {
				e := d.Get(coherence.Addr(i) * timing.LineSize)
				e.State = coherence.DirShared
				for _, id := range []int{5, 600, 1023} {
					e.Sharers.Add(id)
				}
			}
			for i := 0; i < 64; i++ {
				d.Drop(coherence.Addr(i) * timing.LineSize)
			}
		})
		if allocs > 64/8 {
			t.Fatalf("64 lines with three sharers cost %.1f allocations, want at most one chunk per 8 lines", allocs)
		}
	})

	t.Run("node-maps", func(t *testing.T) {
		newController := func(nodes int, topo *topology.Topology) func() {
			e := sim.NewEngine(1)
			net := interconnect.New(e, topo, interconnect.DefaultConfig())
			space := coherence.AddrSpace{Nodes: nodes, MemBytes: 1 << 16}
			dir, mem, cache := coherence.NewDirectory(nodes), coherence.NewMemory(0, space.MemBytes), coherence.NewCache(64*128)
			return func() { New(e, net, 0, space, dir, mem, cache, DefaultConfig()) }
		}
		small := bytesPer(50, newController(8, topology.NewMesh(4, 2)))
		big := bytesPer(50, newController(1024, topology.NewMesh(32, 32)))
		if big-small >= 1024 {
			t.Fatalf("magic.New allocates %.0f B at 1 024 nodes, %.0f B at 8: a node map holds a byte per node", big, small)
		}
	})
}
