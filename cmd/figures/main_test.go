package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"flashfc"
)

// The tests re-exec the test binary with FIGURES_MAIN=1 so that main() runs
// exactly as the installed command would.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFigures runs main() in a child process and returns its stderr and exit
// code.
func runFigures(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	_, stderr, code = runFiguresOut(t, args...)
	return stderr, code
}

// runFiguresOut is runFigures that also returns what main() printed.
func runFiguresOut(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIGURES_MAIN=1")
	var outb, errb bytes.Buffer
	cmd.Stdout = &outb
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("figures %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return outb.String(), errb.String(), code
}

// Figures registers neither -exemplars (tables -table tail) nor flashsim's
// -run-seed: passing either is a usage error, not a silently ignored flag.
func TestTableAndFlashsimFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "ablations", "-exemplars", t.TempDir()},
		{"-fig", "ablations", "-run-seed", "1"},
	} {
		stderr, code := runFigures(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) {
			t.Errorf("figures %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, args[2], stderr)
		}
	}
}

// figures runs only campaigns, so each trace flag exits 2 naming it, and
// the refusal names the one campaign-scale alternative figures has,
// -run-log.
func TestTraceFlagsRefusedNamingRunLog(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "ablations", "-trace"},
		{"-fig", "5.6", "-trace-json", t.TempDir() + "/t.json"},
		{"-fig", "dist", "-trace-critical"},
	} {
		stderr, code := runFigures(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) {
			t.Errorf("figures %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, args[2], stderr)
		}
		if !strings.Contains(stderr, "-run-log") {
			t.Errorf("figures %v: refusal does not mention -run-log:\n%s", args, stderr)
		}
		for _, other := range []string{"-exemplars", "-run-seed"} {
			if strings.Contains(stderr, other) {
				t.Errorf("figures %v: refusal names %s, which figures does not have:\n%s", args, other, stderr)
			}
		}
	}
}

// A negative count is a usage error naming the flag, not a silent run of
// nothing (or of a default).
func TestNegativeCountsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "ablations", "-workers", "-2"},
		{"-fig", "ablations", "-parallel", "-1"},
		{"-fig", "dist", "-runs", "-1"},
	} {
		stderr, code := runFigures(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) {
			t.Errorf("figures %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, args[2], stderr)
		}
	}
}

// A flag the chosen figure never reads is a usage error naming it, not a
// silent no-op: ablations is a fixed set of single runs, 5.7 prints
// neither metrics nor takes a routing strategy, only dist counts -runs and
// only 5.7 has a -full size. A refused -run-log is never created.
func TestIgnoredFlagsRefused(t *testing.T) {
	log := t.TempDir() + "/runs.jsonl"
	for _, args := range [][]string{
		{"-fig", "ablations", "-run-log", log},
		{"-fig", "ablations", "-metrics"},
		{"-fig", "ablations", "-routing", "adaptive"},
		{"-fig", "ablations", "-runs", "3"},
		{"-fig", "ablations", "-full"},
		{"-fig", "ablations", "-progress"},
		{"-fig", "5.7", "-metrics"},
		{"-fig", "5.7", "-routing", "adaptive"},
		{"-fig", "5.7", "-runs", "3"},
		{"-fig", "5.5", "-runs", "2"},
		{"-fig", "5.6", "-full"},
		{"-fig", "dist", "-full"},
		{"-fig", "dist", "-metrics-json"},
	} {
		stderr, code := runFigures(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) || !strings.Contains(stderr, "-fig "+args[1]) {
			t.Errorf("figures %v: exit %d, want 2 naming %s and -fig %s; stderr:\n%s", args, code, args[2], args[1], stderr)
		}
	}
	stderr, code := runFigures(t, "-fig", "ablations", "-run-log", log, "-metrics", "-routing", "adaptive", "-runs", "3", "-full")
	if code != 2 {
		t.Errorf("figures -fig ablations with five ignored flags: exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(log); err == nil {
		t.Error("a refused -run-log was created")
	}
}

// A point whose recovery did not complete, or that failed the judge, is
// named on stderr, and report says so, which makes figures exit 1.
func TestFailedPointsNamed(t *testing.T) {
	var f failures
	stuck := flashfc.ScalingPoint{Nodes: 64} // OK is false: recovery never completed
	f.check(true, "fig 5.5 mesh at %d nodes", 32)
	f.check(stuck.OK, "fig 5.5 mesh at %d nodes", stuck.Nodes)
	var buf bytes.Buffer
	if !f.report(&buf) {
		t.Fatal("report with a failed point returned false")
	}
	if got, want := buf.String(), "figures: fig 5.5 mesh at 64 nodes did not recover\n"; got != want {
		t.Fatalf("stderr = %q, want %q", got, want)
	}
	// A point that recovered but failed the judge is named with its verdict.
	buf.Reset()
	var judged failures
	judged.checkPoint(flashfc.ScalingPoint{Nodes: 16, Judge: []string{"0x80: marked incoherent without a justifying loss"}},
		"fig 5.5 hypercube at %d nodes", 16)
	judged.report(&buf)
	if got, want := buf.String(), "figures: fig 5.5 hypercube at 16 nodes failed the judge: 1 violations: 0x80: marked incoherent without a justifying loss\n"; got != want {
		t.Fatalf("stderr = %q, want %q", got, want)
	}
	buf.Reset()
	var none failures
	none.check(true, "fig 5.7 at %d nodes", 2)
	if none.report(&buf) || buf.Len() != 0 {
		t.Fatalf("report with every point recovered = true, wrote %q", buf.String())
	}
}

// -fig ablations runs each of its single recoveries to completion and
// prints every section: the paper's §4.2, §4.3, §5.3, §6.2 (firewall and
// hardwired controller) and §6.3 measurements.
func TestAblationsPrintsEverySection(t *testing.T) {
	stdout, stderr, code := runFiguresOut(t, "-fig", "ablations")
	if code != 0 {
		t.Fatalf("figures -fig ablations: exit %d; stderr:\n%s", code, stderr)
	}
	for _, section := range []string{
		"§4.2 speculative pings", "§4.3 BFT-hint scheduling",
		"§5.3 uncached-instruction timing", "§6.2 firewall cost",
		"§6.3 HAL-style reliable interconnect", "§6.2 hardwired controller",
	} {
		if !strings.Contains(stdout, "\n"+section) {
			t.Errorf("figures -fig ablations prints no %q section:\n%s", section, stdout)
		}
	}
}
