package hive

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"flashfc/internal/sim"
)

// cleanMake runs a fault-free make of cfg on the 4-cell rig and fails the
// test unless every compile completes correctly.
func cleanMake(t *testing.T, cfg MakeConfig, seed int64) {
	t.Helper()
	m, h := rig(t, 4, 1, seed)
	mk := NewMake(h, cfg)
	idle := false
	mk.Start(func() { idle = true })
	if !runUntil(m, 5*sim.Second, func() bool { return idle }) {
		t.Fatalf("%+v: make did not finish", cfg)
	}
	if o := mk.Evaluate(); !o.OK() || o.Completed != 3 {
		t.Fatalf("%+v: clean run: %+v", cfg, o)
	}
}

// A layout that runs past a node's memory would read or overwrite another
// node's memory: on the rig (256 KB per node), 768 file lines put the third
// input file past the server node and a fault-free run failed with
// "artifact mismatch", indistinguishable from a containment failure.
// NewMake refuses each overrun, naming the sizes; the largest file size
// that fits still runs clean.
func TestNewMakeRefusesOversizedLayout(t *testing.T) {
	base := DefaultMakeConfig()
	for _, tc := range []struct {
		name string
		edit func(*MakeConfig)
		want string
	}{
		{"files past server", func(c *MakeConfig) { c.FileLines = 768 }, "3 input files of 768 lines and 3 results pages need 339968 bytes; the server node has 262144"},
		{"output past client", func(c *MakeConfig) { c.OutputLines = 2000 }, "2000 output lines need 288896 bytes; a client node has 262144"},
		{"results past page", func(c *MakeConfig) { c.ResultLines = 33 }, "33 result lines (4224 bytes) overflow a 4096-byte results page"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			_, h := rig(t, 4, 1, 5)
			defer func() {
				r := recover()
				if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, tc.want) {
					t.Fatalf("NewMake(%+v) panic = %v, want one containing %q", cfg, r, tc.want)
				}
			}()
			NewMake(h, cfg)
		})
	}
	for _, out := range []int{64, 256} {
		cfg := base
		cfg.FileLines, cfg.OutputLines, cfg.ResultLines = 512, out, 32
		cleanMake(t, cfg, 5)
	}
}

// A make's memory operations complete through the three completions each
// task binds once, so the marginal cost of one more operation is well under
// one allocation. A closure per read or store creeping back in costs one
// each and fails the guard outright.
func TestParallelMakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const tasks = 3 // the rig's four cells minus the server
	run := func(fileLines, outputLines int) (ops int, allocs uint64) {
		cfg := DefaultMakeConfig()
		cfg.FileLines, cfg.OutputLines = fileLines, outputLines
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cleanMake(t, cfg, 5)
		runtime.ReadMemStats(&after)
		return tasks * (fileLines + outputLines + cfg.ResultLines), after.Mallocs - before.Mallocs
	}
	run(192, 64) // warm the runtime and the test's own allocations
	smallOps, small := run(192, 64)
	largeOps, large := run(448, 192)
	per := (float64(large) - float64(small)) / float64(largeOps-smallOps)
	t.Logf("%d allocs at %d ops, %d at %d ops: %.2f per memory operation", small, smallOps, large, largeOps, per)
	if per > 0.5 {
		t.Fatalf("a make memory operation allocates %.2f, want <= 0.5", per)
	}
}
