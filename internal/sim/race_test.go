//go:build race

package sim

// raceEnabled reports a -race build. Its instrumentation turns off the
// compiler's in-place form of append(s, make([]T, n)...), so every slice
// growth costs a second allocation and allocation counts stop measuring the
// program.
const raceEnabled = true
