package experiments

import (
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/runner"
)

// TestTransientLinkTail524Contained pins tail run 524 of the TransientLink
// scenario at base seed 1 (-table tail -full -seed 1), which exposed a
// recall/exclusive-grant race: a RECALL on the request lane overtook the
// owner's DATA_EX upgrade grant on the reply lane, the owner answered with
// its stale shared copy, and its committed store later vanished in the P4
// flush as a "stale" writeback — a containment miss with no packet lost.
// handleRecall now merges the recall into the outstanding exclusive miss
// before trusting a resident copy; this run must verify clean forever.
func TestTransientLinkTail524Contained(t *testing.T) {
	cfg := DefaultTailConfig()
	warmSeed := runner.DeriveSeed(1, runner.StreamWarmup, 0)
	ws := WarmupValidation(cfg.ValidationConfig, warmSeed)
	runSeed := runner.DeriveSeed(1, cfg.experiment(fault.TransientLink).Stream(), 524)
	r := ValidationFromWarm(ws, fault.TransientLink, runSeed, nil)
	if !r.OK() {
		t.Fatalf("tail run 524 (seed %d) not contained: recovered=%v verify=%v",
			runSeed, r.Recovered, r.Verify)
	}
}
