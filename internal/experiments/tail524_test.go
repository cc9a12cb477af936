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

// TestQuietNodeFailureGetsFullBudget pins run 2 of `flashsim -fault node
// -nodes 8 -mem 65536 -l2 16384 -fill 48 -seed 5 -runs 8`. Its dead victim
// still owed fill operations, so the fill wait idled until the deadline and
// the quiet fault was first detected by the detection read, 5 s in. With
// the recovery budget measured from the fill's start, recovery got no time
// at all and the run failed with "recovery incomplete after 5s". The
// budget now starts at detection, and the run must recover and verify.
func TestQuietNodeFailureGetsFullBudget(t *testing.T) {
	cfg := fastValidationConfig()
	ws := WarmupValidation(cfg, runner.DeriveSeed(5, runner.StreamWarmup, 0))
	runSeed := runner.DeriveSeed(5, ValidationCampaign{Fault: fault.NodeFailure}.Stream(), 2)
	r := ValidationFromWarm(ws, fault.NodeFailure, runSeed, nil)
	if !r.OK() {
		t.Fatalf("run 2 (seed %d, %v) failed: recovered=%v note=%s", runSeed, r.Fault, r.Recovered, r.Note)
	}
}

// TestFailSlowFlushDoneWaitsForWritebacks pins runs 0, 2, 7 and 10 of
// `flashsim -fault fail-slow -nodes 16 -mem 65536 -l2 16384 -fill 32
// -seed 1 -runs 16`. A survivor's flush-done reached a home slowed 100x
// behind writebacks still queued at its controller, which handed it to
// the agent at arrival; the home swept its directory before they applied
// and marked 1-3 survivor-held lines incoherent. The controller now
// queues the flush-done behind them, and every run must verify clean.
func TestFailSlowFlushDoneWaitsForWritebacks(t *testing.T) {
	cfg := fastValidationConfig()
	cfg.Nodes = 16
	cfg.FillLines = 32
	ws := WarmupValidation(cfg, runner.DeriveSeed(1, runner.StreamWarmup, 0))
	stream := ValidationCampaign{Fault: fault.FailSlow}.Stream()
	for _, run := range []int{0, 2, 7, 10} {
		runSeed := runner.DeriveSeed(1, stream, run)
		r := ValidationFromWarm(ws, fault.FailSlow, runSeed, nil)
		if !r.OK() {
			t.Errorf("run %d (seed %d, %v) failed: recovered=%v verify=%v", run, runSeed, r.Fault, r.Recovered, r.Verify)
		}
	}
}
