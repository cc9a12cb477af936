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

// tables never builds a partitioned machine, which runs only a fault-free
// fill, so -partitions is a usage error naming the flag.
func TestPartitionFlagsAreNotTablesFlags(t *testing.T) {
	for _, table := range []string{"5.3", "5.4"} {
		stderr, code := runTables(t, "-table", table, "-runs", "1", "-partitions", "2")
		if code != 2 || !strings.Contains(stderr, "-partitions") {
			t.Errorf("tables -table %s -partitions: exit %d, want 2 naming -partitions; stderr:\n%s", table, code, stderr)
		}
	}
}

// tables runs only campaigns, so each trace flag exits 2 naming it, and the
// refusal names the campaign-scale alternatives tables has (-run-log,
// -exemplars), not flashsim's -run-seed.
func TestTraceFlagsRefusedNamingTablesFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "tail", "-trace"},
		{"-table", "5.3", "-trace-json", t.TempDir() + "/t.json"},
		{"-table", "routing", "-trace-critical"},
	} {
		stderr, code := runTables(t, args...)
		if code != 2 || !strings.Contains(stderr, args[2]) {
			t.Errorf("tables %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, args[2], stderr)
		}
		for _, want := range []string{"-run-log", "-exemplars"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("tables %v: refusal does not mention %s:\n%s", args, want, stderr)
			}
		}
		if strings.Contains(stderr, "-run-seed") {
			t.Errorf("tables %v: refusal names -run-seed, a flashsim flag:\n%s", args, stderr)
		}
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

// A flag the chosen table never reads is a usage error naming it, not a
// silent no-op: only 5.4 reads -legacy-bug, tail and routing print no
// metrics, the routing table sweeps every strategy itself, and no table
// prints -metrics-json. -full only picks the default of -runs, so the two
// together are refused too.
func TestIgnoredFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-table", "5.3", "-legacy-bug"}, []string{"-legacy-bug", "-table 5.3"}},
		{[]string{"-table", "tail", "-legacy-bug"}, []string{"-legacy-bug", "-table tail"}},
		{[]string{"-table", "tail", "-metrics"}, []string{"-metrics", "-table tail"}},
		{[]string{"-table", "routing", "-metrics"}, []string{"-metrics", "-table routing"}},
		{[]string{"-table", "routing", "-routing", "adaptive"}, []string{"-routing", "-table routing"}},
		{[]string{"-table", "5.4", "-metrics-json"}, []string{"-metrics-json", "-table 5.4"}},
		{[]string{"-table", "5.3", "-full", "-runs", "3"}, []string{"-full", "-runs 3"}},
		{[]string{"-table", "tail", "-full", "-runs", "1"}, []string{"-full", "-runs 1"}},
	} {
		stderr, code := runTables(t, c.args...)
		if code != 2 {
			t.Errorf("tables %v: exit %d, want 2; stderr:\n%s", c.args, code, stderr)
		}
		for _, w := range c.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("tables %v: stderr does not name %s:\n%s", c.args, w, stderr)
			}
		}
	}
}
