//go:build race

package experiments

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// records at random, so the transport's pooled wire records are allocated
// afresh and byte and allocation counts per operation stop measuring the
// program.
const raceEnabled = true
