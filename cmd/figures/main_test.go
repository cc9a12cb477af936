package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIGURES_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("figures %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return errb.String(), code
}

// Figures registers neither -exemplars (tables -table tail) nor flashsim's
// -run-seed, -partitions and -region-extra: passing any of them is a usage
// error, not a silently ignored flag.
func TestTableAndFlashsimFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "ablations", "-exemplars", t.TempDir()},
		{"-fig", "ablations", "-run-seed", "1"},
		{"-fig", "ablations", "-partitions", "2"},
		{"-fig", "ablations", "-region-extra", "2"},
	} {
		stderr, code := runFigures(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) {
			t.Errorf("figures %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, args[2], stderr)
		}
	}
}

// The trace-flag warning names the one campaign-scale alternative figures
// has, -run-log.
func TestTraceWarningNamesOnlyRunLog(t *testing.T) {
	stderr, code := runFigures(t, "-fig", "ablations", "-trace")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-run-log") {
		t.Errorf("trace warning does not mention -run-log:\n%s", stderr)
	}
	for _, other := range []string{"-exemplars", "-run-seed"} {
		if strings.Contains(stderr, other) {
			t.Errorf("trace warning names %s, which figures does not have:\n%s", other, stderr)
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
