package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests re-exec the test binary with FLASHSIM_MAIN=1 so that main()
// runs exactly as the installed command would, letting us assert on the
// real stdout/stderr split and on files it writes.
func TestMain(m *testing.M) {
	if os.Getenv("FLASHSIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFlashsim runs main() in a child process with the given flags and
// fails the test unless it exits 0.
func runFlashsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := runFlashsimExit(t, args...)
	if code != 0 {
		t.Fatalf("flashsim %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
	}
	return stdout, stderr
}

// runFlashsimExit runs main() in a child process and returns its exit code.
func runFlashsimExit(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FLASHSIM_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("flashsim %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

var fastArgs = []string{"-nodes", "4", "-fault", "node", "-mem", "65536", "-l2", "16384", "-fill", "32"}

// With -metrics-json, stdout must stay JSON-only even when -trace is also
// set: the human timeline goes to stderr with the rest of the report.
func TestStdoutJSONOnlyWithTraceAndMetricsJSON(t *testing.T) {
	stdout, stderr := runFlashsim(t, append(fastArgs, "-trace", "-metrics-json")...)
	var snap map[string]any
	if err := json.Unmarshal([]byte(stdout), &snap); err != nil {
		t.Fatalf("stdout is not a single JSON object: %v\nstdout:\n%s", err, stdout)
	}
	if _, ok := snap["counters"]; !ok {
		t.Errorf("stdout JSON lacks a counters key: %v", snap)
	}
	if !bytes.Contains([]byte(stderr), []byte("timeline:")) {
		t.Errorf("human timeline not found on stderr:\n%s", stderr)
	}
}

// -trace-json must produce a valid Chrome trace-event array whose bytes do
// not depend on the -parallel flag.
func TestTraceJSONValidAndIdenticalAcrossParallel(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "p1.json")
	f8 := filepath.Join(dir, "p8.json")
	runFlashsim(t, append(fastArgs, "-trace-json", f1, "-parallel", "1")...)
	runFlashsim(t, append(fastArgs, "-trace-json", f8, "-parallel", "8")...)
	b1, err := os.ReadFile(f1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := os.ReadFile(f8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("trace JSON differs between -parallel 1 and -parallel 8")
	}
	var evs []map[string]any
	if err := json.Unmarshal(b1, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace array is empty")
	}
	for i, ev := range evs {
		for _, key := range []string{"ph", "ts", "pid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
	}
}

// -trace-critical prints a report naming the dominant step with self-times
// summing to the recovery duration.
func TestTraceCriticalReport(t *testing.T) {
	stdout, _ := runFlashsim(t, append(fastArgs, "-trace-critical")...)
	for _, want := range []string{"critical path", "dominant:", "self-time sum"} {
		if !bytes.Contains([]byte(stdout), []byte(want)) {
			t.Errorf("critical report missing %q:\n%s", want, stdout)
		}
	}
}

// -run-log must stream one JSONL record per run, ordered by run index, with
// bytes independent of -parallel; and -run-seed must replay exactly the run
// a record describes — same derived seed, traceable on its own.
func TestRunLogAndRunSeedReplay(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "p1.jsonl")
	f8 := filepath.Join(dir, "p8.jsonl")
	campaign := append(fastArgs, "-runs", "5")
	runFlashsim(t, append(campaign, "-run-log", f1, "-parallel", "1")...)
	runFlashsim(t, append(campaign, "-run-log", f8, "-parallel", "8")...)
	b1, err := os.ReadFile(f1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := os.ReadFile(f8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("run log differs between -parallel 1 and -parallel 8")
	}
	lines := bytes.Split(bytes.TrimSuffix(b1, []byte("\n")), []byte("\n"))
	if len(lines) != 5 {
		t.Fatalf("got %d records, want 5", len(lines))
	}
	type record struct {
		Run           int    `json:"run"`
		Seed          int64  `json:"seed"`
		Outcome       string `json:"outcome"`
		ContainmentNS int64  `json:"containment_ns"`
		WallNS        int64  `json:"wall_ns"`
	}
	var recs []record
	for i, line := range lines {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("record %d: %v\n%s", i, err, line)
		}
		if r.Run != i {
			t.Fatalf("record %d has run index %d: not ordered", i, r.Run)
		}
		if r.Outcome != "pass" {
			t.Errorf("record %d: outcome %q", i, r.Outcome)
		}
		if r.WallNS != 0 {
			t.Errorf("record %d: wall_ns %d not stripped", i, r.WallNS)
		}
		recs = append(recs, r)
	}
	// Replay record 3: the replay banner must name the record's derived
	// seed, and the traced run must pass.
	stdout, _ := runFlashsim(t, append(campaign, "-run-seed", "3")...)
	want := fmt.Sprintf("derived seed %d", recs[3].Seed)
	if !bytes.Contains([]byte(stdout), []byte(want)) {
		t.Errorf("replay of run 3 does not report %q:\n%s", want, stdout)
	}
	if !bytes.Contains([]byte(stdout), []byte("PASS")) {
		t.Errorf("replay did not PASS:\n%s", stdout)
	}
}

// -run-seed with -trace-json writes a trace of exactly the replayed run.
func TestRunSeedTraceJSON(t *testing.T) {
	dir := t.TempDir()
	tf := filepath.Join(dir, "run2.json")
	runFlashsim(t, append(fastArgs, "-runs", "5", "-run-seed", "2", "-trace-json", tf)...)
	b, err := os.ReadFile(tf)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(b, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace array is empty")
	}
}

// -progress writes to stderr only; the run-log warning path for trace flags
// points at the campaign-scale alternatives flashsim has, and only those.
func TestProgressOnStderrAndTraceWarning(t *testing.T) {
	stdout, stderr := runFlashsim(t, append(fastArgs, "-runs", "4", "-progress", "-trace")...)
	if !bytes.Contains([]byte(stderr), []byte("progress:")) {
		t.Errorf("no progress lines on stderr:\n%s", stderr)
	}
	if bytes.Contains([]byte(stdout), []byte("progress:")) {
		t.Error("progress leaked onto stdout")
	}
	for _, want := range []string{"-run-log", "-run-seed"} {
		if !bytes.Contains([]byte(stderr), []byte(want)) {
			t.Errorf("trace warning does not mention %s:\n%s", want, stderr)
		}
	}
	if strings.Contains(stderr, "-exemplars") {
		t.Errorf("trace warning names -exemplars, a tables flag:\n%s", stderr)
	}
}

// -exemplars belongs to tables -table tail: flashsim does not register it,
// so passing it is a usage error rather than a silently ignored flag.
func TestExemplarsIsNotAFlashsimFlag(t *testing.T) {
	_, stderr, code := runFlashsimExit(t, append(fastArgs, "-exemplars", t.TempDir())...)
	if code != 2 || !strings.Contains(stderr, "-exemplars") {
		t.Fatalf("exit %d, want 2 naming -exemplars; stderr:\n%s", code, stderr)
	}
}

// -partitions is real only on -fault none|boundary-link. Every validation
// run — a campaign or a single run, which is campaign run 0 — forks a
// sequential machine's warm snapshot, so it must say the flag has no effect
// and produce exactly the output it produces without it.
func TestPartitionsWarnsOnWarmForkedCampaignOnly(t *testing.T) {
	dir := t.TempDir()
	const noEffect = "no effect on validation runs"
	campaign := append(fastArgs, "-runs", "4", "-metrics-json")
	plainLog, partLog := filepath.Join(dir, "plain.jsonl"), filepath.Join(dir, "part.jsonl")
	plain, stderr := runFlashsim(t, append(campaign, "-run-log", plainLog)...)
	if bytes.Contains([]byte(stderr), []byte(noEffect)) {
		t.Errorf("warning without -partitions:\n%s", stderr)
	}
	part, stderr := runFlashsim(t, append(campaign, "-run-log", partLog, "-partitions", "4")...)
	if !bytes.Contains([]byte(stderr), []byte(noEffect)) {
		t.Errorf("campaign with -partitions 4 does not warn:\n%s", stderr)
	}
	if plain != part {
		t.Error("-partitions changed a campaign's metrics JSON")
	}
	a, err := os.ReadFile(plainLog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(partLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("-partitions changed a campaign's run log")
	}
	single := append(fastArgs, "-fault", "fail-slow", "-metrics-json")
	plain, _ = runFlashsim(t, single...)
	part, stderr = runFlashsim(t, append(single, "-partitions", "4")...)
	if !bytes.Contains([]byte(stderr), []byte(noEffect)) {
		t.Errorf("single validation run with -partitions 4 does not warn:\n%s", stderr)
	}
	if plain != part {
		t.Error("-partitions changed a single validation run's metrics JSON")
	}
	_, stderr = runFlashsim(t, "-nodes", "16", "-fault", "none", "-mem", "65536", "-l2", "16384", "-fill", "32", "-partitions", "2")
	if bytes.Contains([]byte(stderr), []byte(noEffect)) {
		t.Errorf("-fault none warns that -partitions has no effect:\n%s", stderr)
	}
}

// The single-scenario faults run once at -seed and write no run records.
// One warning must name every campaign flag they were given and ignore (and
// -partitions on the sequential compound faults), no run log may appear,
// and a validation campaign given the same flags must not print it.
func TestSingleScenarioWarnsIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "runs.jsonl")
	machine := []string{"-nodes", "16", "-mem", "65536", "-l2", "16384", "-fill", "32"}
	campaign := []string{"-runs", "3", "-run-seed", "1", "-run-log", log, "-progress", "-partitions", "2", "-routing", "incremental"}
	for _, tc := range []struct {
		fault, ignored string
		honoured       []string // flags the scenario uses, for the quiet leg
	}{
		{"powerloss", "-runs -run-seed -run-log -progress -partitions", []string{"-routing", "incremental"}},
		{"cablecut", "-runs -run-seed -run-log -progress -partitions", []string{"-routing", "incremental"}},
		{"none", "-runs -run-seed -run-log -progress -routing", []string{"-partitions", "2"}},
		{"boundary-link", "-runs -run-seed -run-log -progress -routing", []string{"-partitions", "2"}},
	} {
		args := append([]string{"-fault", tc.fault}, machine...)
		_, stderr := runFlashsim(t, append(args, campaign...)...)
		want := "warning: -fault " + tc.fault + " runs a single scenario; ignoring " + tc.ignored + "\n"
		if strings.Count(stderr, "runs a single scenario") != 1 || !strings.Contains(stderr, want) {
			t.Errorf("-fault %s: want the one warning %q, stderr:\n%s", tc.fault, want, stderr)
		}
		if _, err := os.Stat(log); err == nil {
			t.Fatalf("-fault %s wrote a run log it says it ignores", tc.fault)
		}
		_, stderr = runFlashsim(t, append(args, tc.honoured...)...)
		if strings.Contains(stderr, "runs a single scenario") {
			t.Errorf("-fault %s warns without campaign flags:\n%s", tc.fault, stderr)
		}
	}
	_, stderr := runFlashsim(t, append(fastArgs, "-runs", "3", "-run-log", log, "-progress")...)
	if strings.Contains(stderr, "runs a single scenario") {
		t.Errorf("a validation campaign warns that it ignores campaign flags:\n%s", stderr)
	}
}

// A single run is run 0 of its campaign: flashsim -seed S and -runs N -seed
// S -run-seed 0 print the same metrics JSON.
func TestSingleRunIsRunSeedZero(t *testing.T) {
	single, _ := runFlashsim(t, append(fastArgs, "-seed", "7", "-metrics-json")...)
	replay, _ := runFlashsim(t, append(fastArgs, "-seed", "7", "-runs", "4", "-run-seed", "0", "-metrics-json")...)
	if single != replay {
		t.Error("single run and -run-seed 0 print different metrics JSON")
	}
}

// -fault boundary-link fails a link on a region boundary, so without
// -partitions there is nothing to fail: it is refused up front, naming the
// flag, instead of panicking mid-run.
func TestBoundaryLinkNeedsPartitions(t *testing.T) {
	stdout, stderr, code := runFlashsimExit(t, "-nodes", "16", "-fault", "boundary-link")
	if code != 2 || !strings.Contains(stderr, "-partitions") || strings.Contains(stderr, "panic") {
		t.Fatalf("exit %d, want 2 with a message naming -partitions; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// A negative count is a usage error naming the flag.
func TestNegativeCountsRefused(t *testing.T) {
	for _, flag := range []string{"-runs", "-workers", "-parallel"} {
		_, stderr, code := runFlashsimExit(t, append(fastArgs, flag, "-1")...)
		if code != 2 || !strings.Contains(stderr, flag) {
			t.Errorf("flashsim %s -1: exit %d, want 2 naming %s; stderr:\n%s", flag, code, flag, stderr)
		}
	}
}

// A size the simulator cannot run is a usage error naming the flag. Before
// the check, -nodes 0, -nodes 1, -mem 0 and -mem 200 panicked deep in the
// build or the workload, and -mem 100 reported a contained fault after
// verifying no line at all. -l2 0 and -l2 100 ran with a cache that still
// held a line and reported PASS, the P4 flush charged for none of it.
func TestBadSizesRefused(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-nodes", "0"},
		{"-nodes", "1"},
		{"-mem", "0"},
		{"-mem", "100"},
		{"-mem", "200"},
		{"-l2", "0"},
		{"-l2", "100"},
		{"-l2", "200"},
		{"-fill", "-1"},
		{"-stride", "0"},
	} {
		stdout, stderr, code := runFlashsimExit(t, append(fastArgs, c.flag, c.value)...)
		if code != 2 || !strings.Contains(stderr, c.flag) || strings.Contains(stderr, "panic") || stdout != "" {
			t.Errorf("flashsim %s %s: exit %d, want 2 naming %s; stdout:\n%s\nstderr:\n%s", c.flag, c.value, code, c.flag, stdout, stderr)
		}
	}
}
