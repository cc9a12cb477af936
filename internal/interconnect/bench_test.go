package interconnect

import (
	"testing"

	"flashfc/internal/sim"
	"flashfc/internal/topology"
)

// sinkEndpoint accepts every delivery without recording it, so the benchmark
// measures only the fabric's own work.
type sinkEndpoint struct{}

func (sinkEndpoint) Accept(*Packet) bool { return true }

// Per-flit hop delivery is the single hottest event source in the simulator:
// every packet schedules one arrival event per hop. The pre-bound arriveFn
// callback plus capacity-preserving channel queues make the whole
// inject→hop→...→deliver chain allocation-free in steady state, and this
// guard keeps it that way: any closure or queue reallocation creeping back
// into the path fails the benchmark outright. Allocation-free was not
// map-free: until the in-transit record became a single slot per channel,
// every hop also paid a map insert and delete, which this guard cannot see —
// ns/op here (the ledger's interconnect.packet_hop_ns) is what shows it.
func BenchmarkFlitHopPath(b *testing.B) {
	e := sim.NewEngine(1)
	topo := topology.NewMesh(4, 4)
	n := New(e, topo, DefaultConfig())
	for i := 0; i < topo.Routers(); i++ {
		n.SetEndpoint(i, sinkEndpoint{})
	}
	// A corner-to-corner packet crosses six links; reusing it keeps the
	// measurement on the hop path rather than packet construction.
	p := &Packet{Src: 0, Dst: 15, Lane: LaneRequest, Bytes: 16}
	delivered := 0
	n.SetEndpoint(15, EndpointFunc(func(*Packet) bool { delivered++; return true }))
	send := func() {
		n.Send(p)
		e.Run()
	}
	// Warm channel-queue capacities, the event pool, and wheel slots.
	for i := 0; i < 64; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		b.Fatalf("flit hop path allocates %.2f allocs/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}
