package runner

// Seed streams: every campaign family owns a disjoint stream id so that
// equal base seeds never produce correlated runs across experiment kinds.
// Families that batch per fault type add the fault type to their stream.
const (
	StreamValidation   = 0x100 // Table 5.3 validation batches (+ fault type)
	StreamEndToEnd     = 0x200 // Table 5.4 end-to-end batches (+ fault type)
	StreamFig57        = 0x300 // Fig 5.7 suspension sweep (+ node count)
	StreamDistribution = 0x400 // recovery-time distribution campaigns
	// StreamWarmup seeds a campaign's warm-snapshot construction (index
	// 0): the warm-up is shared by every run of a config, so its seed
	// depends only on the campaign base seed, never on a run index or
	// fault type.
	StreamWarmup = 0x500
	// StreamTail seeds the containment-time tail campaigns (+ fault type).
	StreamTail = 0x600
	// StreamRouting seeds the head-to-head routing campaigns (+ scenario
	// index). Every strategy replays the same runs of a scenario, so the
	// stream does NOT add the strategy — pairing is the point.
	StreamRouting = 0x700
)

// DeriveSeed maps (base, stream, i) to a decorrelated engine seed with a
// SplitMix64-style mixer: each input is folded in with a golden-ratio
// increment and run through the full 64-bit finalizer, so neighbouring run
// indices (or streams) land in unrelated parts of the seed space. This is
// the single seed-derivation scheme for every campaign; it replaces the
// ad-hoc per-driver scrambles (seed+i*7919+ft*104729 and friends), whose
// small prime steps left derived seeds on a lattice.
//
// The result is masked to 63 bits so derived seeds print as non-negative
// numbers that can be passed back via the CLIs' -seed flags.
func DeriveSeed(base int64, stream, i int) int64 {
	const golden = 0x9E3779B97F4A7C15
	z := mix64(uint64(base) + golden)
	z = mix64(z + uint64(int64(stream))*golden)
	z = mix64(z + uint64(int64(i))*golden)
	return int64(z &^ (1 << 63))
}

// mix64 is the SplitMix64 finalizer (Steele, Lea & Flood's fmix64
// variant): an invertible avalanche over the full 64-bit word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
