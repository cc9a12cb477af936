package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/obs"
	"flashfc/internal/runner"
)

// fastTailConfig shrinks the tail campaign to test scale.
func fastTailConfig() TailConfig {
	cfg := DefaultTailConfig()
	cfg.FillLines = 64
	cfg.Runs = 8
	return cfg
}

// tailRunLog runs a tail campaign observed and returns the JSONL bytes.
func tailRunLog(t *testing.T, cfg TailConfig, seed int64) string {
	t.Helper()
	log, _ := observed(t, func(sink obs.Sink) {
		cfg.Observe = sink
		TailCampaign(cfg, seed)
	})
	return log
}

// TestTailRunLogByteIdentity: the JSONL record stream of a tail campaign
// is byte-identical regardless of how many run-level workers raced to
// complete runs (and so of which worker's warm snapshot each run forked).
// The RunLog reorders completion-order events back to run-index order and
// the records strip host-side fields.
func TestTailRunLogByteIdentity(t *testing.T) {
	cfg := fastTailConfig()
	cfg.Workers = 1
	want := tailRunLog(t, cfg, 23)
	if want == "" {
		t.Fatal("empty run log")
	}
	cfg.Workers = 8
	if got := tailRunLog(t, cfg, 23); got != want {
		t.Errorf("run log differs between 1 and 8 workers:\n1: %q\n8: %q", want, got)
	}
}

// TestTailRunLogRecords checks the stream's shape: one batch per fault
// class, run indices 0..runs-1 in order within each batch, and every record
// carrying the derived seed that reproduces it (asserted by replaying one).
func TestTailRunLogRecords(t *testing.T) {
	cfg := fastTailConfig()
	seed := int64(23)
	recs := parseRunLog(t, tailRunLog(t, cfg, seed))
	faults := fault.ExtendedTypes()
	if want := cfg.Runs * len(faults); len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for n, rec := range recs {
		batch, i := n/cfg.Runs, n%cfg.Runs
		if rec.Run != i {
			t.Fatalf("record %d: run index %d, want %d", n, rec.Run, i)
		}
		if want := runner.DeriveSeed(seed, runner.StreamTail+int(faults[batch]), i); rec.Seed != want {
			t.Errorf("record %d: seed %d, want %d", n, rec.Seed, want)
		}
		if rec.Outcome != obs.OutcomePass {
			t.Errorf("record %d: outcome %q, note %q", n, rec.Outcome, rec.Note)
		}
		if rec.WallNS != 0 || rec.Worker != 0 {
			t.Errorf("record %d: host fields not stripped: wall=%d worker=%d",
				n, rec.WallNS, rec.Worker)
		}
		if rec.ContainmentNS <= 0 {
			t.Errorf("record %d: containment %d", n, rec.ContainmentNS)
		}
	}
	// The first record's seed reproduces the first record's containment
	// time: any run-log row is replayable.
	first := recs[0]
	e := ReplayTailRun(cfg, faults[0], seed, first.Run)
	if e.Seed != first.Seed {
		t.Fatalf("replay derived seed %d, record says %d", e.Seed, first.Seed)
	}
	if int64(e.TracedTime) != first.ContainmentNS {
		t.Errorf("replayed containment %d, record says %d",
			int64(e.TracedTime), first.ContainmentNS)
	}
}

// TestTailRunLogPanicRecord injects a panic into one run of every batch and
// requires it to surface as a well-formed "panic" record at the right index
// — observability must not lose crashed runs, and the stream stays complete
// and ordered around them.
func TestTailRunLogPanicRecord(t *testing.T) {
	cfg := fastTailConfig()
	cfg.Workers = 4
	cfg.runHook = func(i int) {
		if i == 3 {
			panic("injected driver crash")
		}
	}
	recs := parseRunLog(t, tailRunLog(t, cfg, 23))
	if want := cfg.Runs * len(fault.ExtendedTypes()); len(recs) != want {
		t.Fatalf("got %d records, want %d (panics must not drop records)", len(recs), want)
	}
	panics := 0
	for n, rec := range recs {
		if rec.Run != n%cfg.Runs {
			t.Fatalf("record %d: run index %d, want %d", n, rec.Run, n%cfg.Runs)
		}
		if rec.Run == 3 {
			panics++
			if rec.Outcome != obs.OutcomePanic {
				t.Errorf("crashed run logged as %q", rec.Outcome)
			}
			if !strings.Contains(rec.Note, "injected driver crash") {
				t.Errorf("panic note %q does not name the panic", rec.Note)
			}
			if rec.Fault != "" || rec.ContainmentNS != 0 {
				t.Errorf("panic record carries run payload: %+v", rec)
			}
		} else if rec.Outcome != obs.OutcomePass {
			t.Errorf("record %d: outcome %q", n, rec.Outcome)
		}
	}
	if want := len(fault.ExtendedTypes()); panics != want {
		t.Errorf("%d panic records, want %d", panics, want)
	}
}

// TestTailExemplarReplayExact is the acceptance contract: replaying the
// runs behind a finished tail campaign's p50/p99/p999 — same warm fork,
// same derived seeds, tracing on — reproduces every recorded observation
// exactly. In particular the traced p999 containment time equals the
// campaign's recorded p999 observation bit-for-bit.
func TestTailExemplarReplayExact(t *testing.T) {
	cfg := fastTailConfig()
	cfg.Runs = 10
	seed := int64(31)
	res := TailCampaign(cfg, seed)
	replays := ReplayTailExemplars(cfg, seed, res)
	if want := len(res.Scenarios) * len(TailPercentiles); len(replays) != want {
		t.Fatalf("%d replays, want %d", len(replays), want)
	}
	for _, e := range replays {
		if !e.Match() {
			t.Errorf("%v p%g: traced %v != campaign %v (run %d seed %d)",
				e.Fault, e.Pct, e.TracedTime, e.CampaignTime, e.Run, e.Seed)
		}
		if e.Trace == nil || len(e.Trace.CriticalPaths()) == 0 {
			t.Errorf("%v p%g: replay produced no critical path", e.Fault, e.Pct)
		}
		if !e.Result.OK() {
			t.Errorf("%v p%g: replayed run failed: %s", e.Fault, e.Pct, e.Result.Note)
		}
	}
	// The p999 exemplar must be a real observation: at 10 runs nearest-rank
	// p999 is the maximum, so its time equals the largest passing time.
	for _, sc := range res.Scenarios {
		ex := sc.Exemplars[len(sc.Exemplars)-1]
		if ex.Pct != 99.9 {
			t.Fatalf("%v: last exemplar is p%g, want p99.9", sc.Fault, ex.Pct)
		}
		if ex.Run < 0 || ex.Run >= cfg.Runs {
			t.Errorf("%v: exemplar run %d out of range", sc.Fault, ex.Run)
		}
	}
	// And the exemplar set itself is deterministic.
	res2 := TailCampaign(cfg, seed)
	for i, sc := range res.Scenarios {
		if len(sc.Exemplars) != len(res2.Scenarios[i].Exemplars) {
			t.Fatalf("%v: exemplar count changed between identical campaigns", sc.Fault)
		}
		for j, ex := range sc.Exemplars {
			if ex != res2.Scenarios[i].Exemplars[j] {
				t.Errorf("%v: exemplar %d differs between identical campaigns: %+v vs %+v",
					sc.Fault, j, ex, res2.Scenarios[i].Exemplars[j])
			}
		}
	}
}

// TestWriteExemplarDeterministicBytes renders a tail campaign's exemplars
// twice (through two fresh campaigns) and requires every output file to be
// byte-identical — the trace JSON and the summaries carry no host state —
// with one trace file per distinct replayed run.
func TestWriteExemplarDeterministicBytes(t *testing.T) {
	cfg := fastTailConfig()
	cfg.Runs = 4
	render := func(dir string) []ExemplarReplay {
		res := TailCampaign(cfg, 23)
		es := ReplayTailExemplars(cfg, 23, res)
		if err := WriteExemplars(dir, es); err != nil {
			t.Fatal(err)
		}
		return es
	}
	a, b := t.TempDir(), t.TempDir()
	es := render(a)
	render(b)
	runs := map[string]bool{}
	for _, e := range es {
		runs[fmt.Sprintf("%v-run%d.trace.json", e.Fault, e.Run)] = true
	}
	entries, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	traces := 0
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".trace.json") {
			traces++
			if !runs[name] {
				t.Errorf("trace file %s names no replayed run", name)
			}
		}
		fa := readFile(t, filepath.Join(a, name))
		if fb := readFile(t, filepath.Join(b, name)); fa != fb {
			t.Errorf("%s differs between two identical renders", name)
		}
		if fa == "" {
			t.Errorf("%s is empty", name)
		}
	}
	if traces != len(runs) || len(entries) != len(runs)+len(es) {
		t.Errorf("%d files, %d traces: want one trace per distinct run (%d) and one summary per replay (%d)",
			len(entries), traces, len(runs), len(es))
	}
	// The summary must verify its own replay and name a dominant step.
	var sum struct {
		Match    bool `json:"match"`
		Critical struct {
			Dominant struct {
				Step string `json:"step"`
			} `json:"dominant"`
		} `json:"critical"`
	}
	if err := json.Unmarshal([]byte(readFile(t, filepath.Join(a, "fail-slow-p999.json"))), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Match {
		t.Error("summary reports match=false for a deterministic replay")
	}
	if sum.Critical.Dominant.Step == "" {
		t.Error("summary names no dominant recovery step")
	}
}

// When two percentiles pick one run (p99 and p999 at small run counts), the
// run is replayed once, its trace is written once, and both summaries name
// that trace file.
func TestExemplarRunWrittenOnce(t *testing.T) {
	cfg := fastTailConfig()
	cfg.Runs = 4
	cfg.Faults = []fault.Type{fault.FailSlow}
	res := TailCampaign(cfg, 23)
	es := ReplayTailExemplars(cfg, 23, res)
	p99, p999 := es[1], es[2]
	if p99.Run != p999.Run {
		t.Fatalf("p99 picks run %d, p999 run %d: want one run at %d runs", p99.Run, p999.Run, cfg.Runs)
	}
	if p99.Trace != p999.Trace || p99.Result != p999.Result {
		t.Error("one run behind two percentiles was replayed twice")
	}
	dir := t.TempDir()
	if err := WriteExemplars(dir, es); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("fail-slow-run%d.trace.json", p999.Run)
	for _, name := range []string{"fail-slow-p99.json", "fail-slow-p999.json"} {
		var sum struct {
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal([]byte(readFile(t, filepath.Join(dir, name))), &sum); err != nil {
			t.Fatal(err)
		}
		if sum.Trace != want {
			t.Errorf("%s names trace %q, want %q", name, sum.Trace, want)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if len(matches) != 2 {
		t.Errorf("%d trace files for runs %d, %d, %d: want 2", len(matches), es[0].Run, p99.Run, p999.Run)
	}
	if got := readFile(t, filepath.Join(dir, want)); !strings.HasPrefix(got, "[\n{") {
		t.Errorf("%s is not a trace-event array", want)
	}
}

func TestExemplarName(t *testing.T) {
	for _, tc := range []struct {
		fault string
		pct   float64
		want  string
	}{
		{"fail-slow", 50, "fail-slow-p50"},
		{"transient-link", 99, "transient-link-p99"},
		{"node", 99.9, "node-p999"},
	} {
		if got := exemplarName(tc.fault, tc.pct); got != tc.want {
			t.Errorf("exemplarName(%q, %v) = %q, want %q", tc.fault, tc.pct, got, tc.want)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return string(b)
}
