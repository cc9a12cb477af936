//go:build race

package hive

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// records at random, so the transport's pooled wire records are allocated
// afresh and allocation counts stop measuring the program.
const raceEnabled = true
