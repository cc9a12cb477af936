package machine

import (
	"maps"

	"flashfc/internal/coherence"
	"flashfc/internal/interconnect"
)

// Oracle is the harness's ground truth for memory contents, mirroring the
// tracking the paper's simulator does (§5.2): it knows the last token
// committed to every line and the set of lines that *may* legitimately have
// become incoherent — because a failing node held them exclusive, or
// because a data-carrying message was destroyed by the fabric. Verification
// checks both directions: no surviving line may return wrong data, and no
// line outside this set may be marked incoherent (no over-marking).
type Oracle struct {
	expected  map[coherence.Addr]uint64
	mayBeLost map[coherence.Addr]bool
	nextTok   uint64
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{
		expected:  make(map[coherence.Addr]uint64),
		mayBeLost: make(map[coherence.Addr]bool),
		nextTok:   0x1000,
	}
}

// Clone returns an independent deep copy of the oracle, so a forked
// machine's ground truth diverges from the source's.
func (o *Oracle) Clone() *Oracle {
	return &Oracle{
		expected:  maps.Clone(o.expected),
		mayBeLost: maps.Clone(o.mayBeLost),
		nextTok:   o.nextTok,
	}
}

// NextToken mints a unique token for a store.
func (o *Oracle) NextToken() uint64 {
	o.nextTok++
	return o.nextTok
}

// Wrote records a committed store (call from the workload's completion
// callback — a store whose grant was lost never committed).
func (o *Oracle) Wrote(a coherence.Addr, token uint64) {
	o.expected[a.Line()] = token
}

// ExpectedToken returns the last committed token of a line.
func (o *Oracle) ExpectedToken(a coherence.Addr) uint64 {
	a = a.Line()
	if t, ok := o.expected[a]; ok {
		return t
	}
	return coherence.InitialToken(a)
}

// LostLine records that a line's only valid copy may have been destroyed.
func (o *Oracle) LostLine(a coherence.Addr) { o.mayBeLost[a.Line()] = true }

// MayBeLost reports whether marking a line incoherent is justified.
func (o *Oracle) MayBeLost(a coherence.Addr) bool { return o.mayBeLost[a.Line()] }

// LostCount returns the size of the may-be-lost set.
func (o *Oracle) LostCount() int { return len(o.mayBeLost) }

// WrittenLines returns the addresses of all committed stores.
func (o *Oracle) WrittenLines() []coherence.Addr {
	out := make([]coherence.Addr, 0, len(o.expected))
	for a := range o.expected {
		out = append(out, a)
	}
	return out
}

// PacketLost is wired to interconnect.Network.OnLost: a destroyed packet
// carrying line data may have carried the line's only valid copy.
func (o *Oracle) PacketLost(p *interconnect.Packet) {
	msg, ok := p.Payload.(*coherence.Message)
	if !ok {
		return
	}
	if msg.Type.CarriesData() {
		o.LostLine(msg.Addr)
	}
}

// Scrubbed records an OS page scrub: the line is reset, and subsequent
// reads legitimately see fresh (initial) content again.
func (o *Oracle) Scrubbed(a coherence.Addr) {
	a = a.Line()
	delete(o.mayBeLost, a)
	delete(o.expected, a)
}
