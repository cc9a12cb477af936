package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests re-exec the test binary with TABLES_MAIN=1 so that main() runs
// exactly as the installed command would.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTables runs main() in a child process and returns its stderr and exit
// code.
func runTables(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("tables %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return errb.String(), code
}

// -exemplars replays the percentiles of the tail table, so every other
// table refuses it up front and writes nothing.
func TestExemplarsNeedsTailTable(t *testing.T) {
	dir := t.TempDir() + "/ex"
	stderr, code := runTables(t, "-table", "5.3", "-exemplars", dir)
	if code != 2 || !strings.Contains(stderr, "-table tail") {
		t.Fatalf("exit %d, want 2 naming -table tail; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Error("a refused -exemplars created its directory")
	}
}

// -run-seed traces one flashsim campaign run; tables does not register it.
func TestRunSeedIsNotATablesFlag(t *testing.T) {
	stderr, code := runTables(t, "-table", "tail", "-runs", "1", "-run-seed", "3")
	if code != 2 || !strings.Contains(stderr, "-run-seed") {
		t.Fatalf("exit %d, want 2 naming -run-seed; stderr:\n%s", code, stderr)
	}
}

// -partitions and -region-extra drive flashsim's partitioned scenarios;
// tables never builds a partitioned machine and does not register them.
func TestPartitionFlagsAreNotTablesFlags(t *testing.T) {
	for _, flag := range []string{"-partitions", "-region-extra"} {
		for _, table := range []string{"5.3", "5.4"} {
			stderr, code := runTables(t, "-table", table, "-runs", "1", flag, "2")
			if code != 2 || !strings.Contains(stderr, flag) {
				t.Errorf("tables -table %s %s: exit %d, want 2 naming %s; stderr:\n%s", table, flag, code, flag, stderr)
			}
		}
	}
}

// The trace-flag warning names the campaign-scale alternatives tables has
// (-run-log, -exemplars) and not flashsim's -run-seed.
func TestTraceWarningNamesTablesFlags(t *testing.T) {
	stderr, code := runTables(t, "-table", "tail", "-runs", "1", "-trace")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"-run-log", "-exemplars"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("trace warning does not mention %s:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "-run-seed") {
		t.Errorf("trace warning names -run-seed, a flashsim flag:\n%s", stderr)
	}
}

// A negative count is a usage error naming the flag: -runs -1 used to run
// nothing and report success, and -table routing -runs -2 ran its default.
func TestNegativeCountsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "5.3", "-runs", "-1"},
		{"-table", "routing", "-runs", "-2"},
		{"-table", "5.3", "-workers", "-1"},
		{"-table", "tail", "-parallel", "-3"},
	} {
		stderr, code := runTables(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) {
			t.Errorf("tables %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, args[2], stderr)
		}
	}
}
