package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to its contract and to the
// benchmark's own tables: every name well-formed and used once, the limits
// on counts, every workload with a why, every metric matching metricsdef.go,
// and every per-layer metric naming the user-visible metric and the
// workloads it is expected to move.
func TestBenchmarkJSON(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if got := strings.Join(bj.Command, " "); got != "go run -C bench ." {
		t.Errorf("command = %q", got)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 s; beside the
	// timed set a run makes five set-ups, one resident-heap rep and the
	// go run start, about 7 s on the reference host.
	if runs := 4 + 22*len(bj.Workloads); runs*(bj.RunSeconds+8) > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's 3420 s", runs, bj.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", n, len(workloads))
	}
	known := map[string]bool{}
	for i, w := range bj.Workloads {
		name("workload", w.Name)
		known[w.Name] = true
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if all[i] != w.Name {
			t.Errorf("metricsdef.go lists workload %q at %d, want %q", all[i], i, w.Name)
		}
	}

	if n := len(bj.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", n, len(endToEnd))
	}
	visible := map[string]bool{}
	for i, m := range bj.EndToEnd {
		name("metric", m.Name)
		visible[m.Name] = true
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %s %s %s %v", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > bj.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if s := bj.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower better; got %+v", s)
	}
	for _, d := range userVisible {
		visible[d.Name] = true
	}

	defs := perLayerDefs()
	if n := len(bj.PerLayer); n < 1 || n > 128 || n != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", n, len(defs))
	}
	for i, m := range bj.PerLayer {
		name("metric", m.Name)
		d := defs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", m.Name, m.Unit, m.Better)
		}
		if !visible[d.Moves] {
			t.Errorf("%s: moves %q, which is not a user-visible metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("%s: names no workload it should move %s on", d.Name, d.Moves)
		}
		on := map[string]bool{}
		for _, w := range d.On {
			on[w] = true
			if !known[w] {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
		for _, w := range d.NotOn {
			if !known[w] || on[w] {
				t.Errorf("%s: no-change workload %q is unknown or also listed as moving", d.Name, w)
			}
		}
		if d.Doc == "" {
			t.Errorf("%s: undocumented", d.Name)
		}
	}

	// Every kernel reports into a declared metric and every kernel metric
	// has a kernel.
	declared := map[string]bool{}
	for _, d := range kernelDefs {
		declared[d.Name] = true
	}
	for _, k := range kernels {
		for _, n := range []string{k.ns, k.allocs} {
			if n != "" && !declared[n] {
				t.Errorf("kernel reports undeclared metric %q", n)
			}
			delete(declared, n)
		}
	}
	for n := range declared {
		t.Errorf("kernel metric %q has no kernel", n)
	}
}

// TestReadmeNamesEveryMetric keeps README.md's tables complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range concat(endToEnd, perLayerDefs()) {
		if !bytes.Contains(b, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not document %s", d.Name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(b, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("quartiles(4) = %v %v %v", q1, med, q3)
	}
	if s := medianOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, "x").spread(); s != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", s)
	}
}

// TestTailPercentileRule: the reported percentile is the highest with at
// least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		pct, value float64
	}{
		{10, 100, 10},       // nothing has ten samples beyond it: the maximum
		{19, 100, 19},       //
		{20, 50, 10},        // rank 10, ten beyond
		{200, 95, 190},      // 99 would leave two beyond
		{1000, 99, 990},     // 99.9 would leave one beyond
		{10000, 99.9, 9990}, // exactly ten beyond
		{100000, 99.99, 99990},
	} {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.value {
			t.Errorf("n=%d: p%v = %v, want p%v = %v", c.n, pct, v, c.pct, c.value)
		}
	}
	if pct, v := tailPercentile(nil); pct != 0 || v != 0 {
		t.Errorf("empty: %v %v", pct, v)
	}
}

// TestSpanSelfTime: self time is duration minus the part child spans cover,
// and the tracer links each span to the one that caused it.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "fork", Start: 10, End: 20},
		{ID: 4, Parent: 2, Name: "verify", Start: 30, End: 85},
		{ID: 5, Parent: 1, Name: "run", Start: 90, End: 95},
	}
	want := []int64{100 - 80 - 5, 80 - 10 - 55, 10, 55, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i+1, spans[i].Name, got, want[i])
		}
	}
	by := selfByName(spans)
	if by["run"] != 20 || by["verify"] != 55 || by["rep"] != 15 {
		t.Errorf("selfByName = %v", by)
	}

	tr := newTracer()
	tr.rep = 2
	tr.begin(spanRep)
	tr.beginRun(7)
	tr.begin(spanFork)
	tr.end()
	tr.endRun()
	tr.begin(spanWarmup)
	tr.end()
	tr.end()
	if len(tr.open) != 0 || len(tr.spans) != 4 {
		t.Fatalf("tracer left %d open of %d spans", len(tr.open), len(tr.spans))
	}
	for i, want := range []span{
		{ID: 1, Parent: 0, Rep: 2, Run: -1, Name: spanRep},
		{ID: 2, Parent: 1, Rep: 2, Run: 7, Name: spanRun},
		{ID: 3, Parent: 2, Rep: 2, Run: 7, Name: spanFork},
		{ID: 4, Parent: 1, Rep: 2, Run: -1, Name: spanWarmup},
	} {
		got := tr.spans[i]
		if got.End < got.Start {
			t.Errorf("span %d ends before it starts", got.ID)
		}
		got.Start, got.End = 0, 0
		if got != want {
			t.Errorf("span %d = %+v, want %+v", i+1, got, want)
		}
	}
	var none *tracer
	none.begin("x")
	none.beginRun(1)
	none.endRun()
	none.end()
}

func TestVerdict(t *testing.T) {
	// m is a measure with the given samples, or measured once.
	m := func(v, q1, q3 float64, samples ...float64) measure {
		if len(samples) == 0 {
			return single(v, "x")
		}
		return measure{Value: v, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
	}
	for _, c := range []struct {
		name   string
		a, b   measure
		better string
		bound  float64
		want   string
	}{
		{"within bound", m(100, 99, 101), m(95, 94, 96), "higher", 0.10, verdictOK},
		{"worse beyond bound", m(100, 99, 101), m(85, 84, 86), "higher", 0.10, verdictRegressed},
		{"lower is better", m(100, 100, 100), m(103, 103, 103), "lower", 0.02, verdictRegressed},
		{"improved", m(100, 100, 100), m(50, 50, 50), "lower", 0.02, verdictOK},
		{"spread wider than bound", m(100, 90, 110, 90, 110), m(98, 88, 108, 88, 108), "higher", 0.10, verdictUnresolved},
		{"worse, but inside the spread", m(100, 85, 115, 85, 115), m(88, 75, 101, 75, 101), "higher", 0.10, verdictUnresolved},
		{"noisy, but every sample better", m(100, 90, 110, 90, 110), m(150, 130, 170, 130, 170), "higher", 0.10, verdictOK},
	} {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestFidelityNamesTheField: a drifted replica must be reported by workload,
// run and field.
func TestFidelityNamesTheField(t *testing.T) {
	w := findWorkload("recovery128")
	in := inputs{seed: 5, smoke: true, workers: 1}
	facade, replica := w.facade(in), w.replica(in, nil)
	if err := w.fidelity(facade, replica); err != nil {
		t.Fatalf("faithful replica rejected: %v", err)
	}
	if w.digest(facade) != w.digest(replica) {
		t.Error("digests of facade and replica differ")
	}
	replica.Runs[1].Events++
	err := w.fidelity(facade, replica)
	if err == nil || !strings.Contains(err.Error(), "recovery128: run 1 field events") {
		t.Errorf("drifted events reported as %v", err)
	}
	if w.digest(facade) == w.digest(replica) {
		t.Error("digest did not notice the drift")
	}
	replica.Runs[1].Events--
	replica.Runs[0].Counts[3]++
	err = w.fidelity(facade, replica)
	if err == nil || !strings.Contains(err.Error(), "run 0 field max_rounds") {
		t.Errorf("drifted count reported as %v", err)
	}
}

// TestSmoke runs the whole ledger at smoke size: all six workloads, both
// sets, the fidelity gate, the kernels, the result file, the spans files,
// and -compare of the set against itself. About 5 s on the reference host.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "2", "-outdir", dir}, &out, &errs); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, errs.String())
	}
	for _, d := range concat(endToEnd, perLayerDefs()) {
		if !strings.Contains(out.String(), "  "+d.Name+" ") {
			t.Errorf("report does not print %s", d.Name)
		}
	}
	results := filepath.Join(dir, "results-seed2.json")
	set, err := loadResultSet(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Workloads) != len(workloads) || set.Host.NumCPU < 1 || set.Host.GoVersion == "" {
		t.Errorf("result set has %d workloads, host %+v", len(set.Workloads), set.Host)
	}
	for _, w := range set.Workloads {
		if !w.SimIdentical || w.Timed.Failed+w.Traced.Failed != 0 {
			t.Errorf("%s: sim_identical %v, %d failed", w.Name, w.SimIdentical, w.Timed.Failed+w.Traced.Failed)
		}
		b, err := os.ReadFile(filepath.Join(dir, "spans-"+w.Name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var sf spanFile
		if err := json.Unmarshal(b, &sf); err != nil || len(sf.Spans) == 0 || sf.Workload != w.Name {
			t.Errorf("spans-%s.json: %v, %d spans", w.Name, err, len(sf.Spans))
		}
	}
	if v := set.Workloads[0].Traced.Metrics["machine.verify_ms"].Value; v <= 0 {
		t.Errorf("table53 attributes %v ms to machine.verify_ms", v)
	}
	for _, i := range []int{2, 3, 5} {
		if v := set.Workloads[i].Traced.Metrics["machine.verify_ms"].Value; v != 0 {
			t.Errorf("%s attributes %v ms to machine.verify_ms, want 0", set.Workloads[i].Name, v)
		}
	}

	out.Reset()
	if code := run([]string{"-compare", results, results}, &out, &errs); code != 0 {
		t.Errorf("a set compared with itself exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "sim_identical true") {
		t.Errorf("-compare does not report sim_identical:\n%s", out.String())
	}
}

// TestDriverLine: with -workload the last line of standard output is the one
// JSON object the driver reads, holding exactly the end-to-end metrics with
// -trace 0 and exactly the per-layer metrics with -trace 1.
func TestDriverLine(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"0": nil, "1": nil}
	for _, m := range bj.EndToEnd {
		want["0"] = append(want["0"], m.Name)
	}
	for _, m := range bj.PerLayer {
		want["1"] = append(want["1"], m.Name)
	}
	for trace, names := range want {
		var out, errs bytes.Buffer
		args := []string{"--workload", "tail-sparse", "--seed", "4", "--seconds", "1", "--trace", trace, "-smoke", "-outdir", t.TempDir()}
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("-trace %s exited %d:\n%s", trace, code, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("-trace %s: result object has %d keys, want correct, attempted, failed, metrics", trace, len(line))
		}
		var dl driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &dl); err != nil {
			t.Fatal(err)
		}
		if !dl.Correct || dl.Attempted < 1 || dl.Failed != 0 || len(dl.Metrics) != len(names) {
			t.Errorf("-trace %s: %+v with %d metrics, want %d", trace, dl, len(dl.Metrics), len(names))
		}
		for _, n := range names {
			if _, ok := dl.Metrics[n]; !ok {
				t.Errorf("-trace %s: metric %s missing", trace, n)
			}
		}
	}
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload exited %d and printed %q", code, out.String())
	}
}
