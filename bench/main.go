// Command bench is the one instrument for performance claims about flashfc.
//
//	go run -C bench . -seed 1                    every workload, both sets, kernels; writes out/results-seed1.json
//	go run -C bench . -compare A.json B.json     compare two result sets against BENCHMARK.json's bounds
//	go run -C bench . -workload table53 -seed 3 -seconds 10 -trace 0
//	                                             the driver's form: one workload, one set, one JSON line
//
// See README.md for the workloads, every metric, and how the layer metrics
// are expected to move the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: every config and run seed derives from it")
	name := fs.String("workload", "", "run one workload and print one JSON result line (the driver's form)")
	seconds := fs.Float64("seconds", 10, "how long each timed set measures")
	traced := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (tracing off), 1 the per-layer metrics (traced run and kernels)")
	smoke := fs.Bool("smoke", false, "one rep, reduced run counts and machine sizes: checks the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	outdir := fs.String("outdir", "out", "directory for results-seed<n>.json and spans-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *seconds <= 0 || (*traced != 0 && *traced != 1):
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	in := inputs{seed: *seed, smoke: *smoke, workers: 1}
	budget := time.Duration(*seconds * float64(time.Second))
	if *smoke {
		budget = 0
	}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return driverRun(w, in, budget, *traced == 1, *outdir, stdout, stderr)
	}
	return fullRun(in, budget, *outdir, stdout, stderr)
}

// How long each layer kernel measures beside a 10 s timed set: 0.3 s in the
// full run, 0.2 s in a driver run, whose every invocation repeats them.
func fullKernelTime(budget time.Duration) time.Duration   { return budget * 3 / 100 }
func driverKernelTime(budget time.Duration) time.Duration { return budget * 2 / 100 }

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one set of one workload and prints the driver's line:
// every end-to-end metric with tracing off, or every per-layer metric from
// the traced run and the kernels.
func driverRun(w *workload, in inputs, budget time.Duration, traced bool, outdir string, stdout, stderr io.Writer) int {
	var s setResult
	defs := endToEnd
	if traced {
		// The traced run shares its budget with the kernels.
		s = tracedSet(w, in, budget*4/10, minTracedReps)
		addLayerExtras(&s, w, in, runKernels(in.seed, driverKernelTime(budget)))
		defs = perLayerDefs()
		if _, err := writeSpans(outdir, w.name, in.seed, s.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	} else {
		s = timedSet(w, in, budget)
	}
	line := driverLine{Correct: s.Failed == 0, Attempted: s.Attempted, Failed: s.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		// A layer metric with no span or count on this workload reads 0.
		line.Metrics[d.Name] = driverValue{Value: s.Metrics[d.Name].Value, Unit: d.Unit}
	}
	for _, e := range s.Errors {
		fmt.Fprintln(stderr, "bench:", e)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if s.Failed != 0 {
		return 1
	}
	return 0
}

// addLayerExtras completes a traced set's per-layer metrics with the ones
// measured outside the traced reps.
func addLayerExtras(s *setResult, w *workload, in inputs, kernels map[string]measure) {
	for name, m := range kernels {
		s.Metrics[name] = m
	}
	if w.campaign {
		s.Metrics["runner.parallel_efficiency"] = single(parallelEfficiency(w, in), "share")
	}
}

// fullRun is the ledger: for every workload the timed set, then the traced
// set; the kernels once; one result file and one spans file per workload.
func fullRun(in inputs, budget time.Duration, outdir string, stdout, stderr io.Writer) int {
	set := resultSet{Schema: resultSchema, Seed: in.seed, Seconds: budget.Seconds(), Smoke: in.smoke}
	set.Host = readHost()
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(stderr, "bench: %s: timed set\n", w.name)
		timed := timedSet(w, in, budget)
		fmt.Fprintf(stderr, "bench: %s: traced set\n", w.name)
		traced := tracedSet(w, in, 0, fullTracedReps)
		addLayerExtras(&traced, w, in, nil)
		path, err := writeSpans(outdir, w.name, in.seed, traced.spans)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		set.Workloads = append(set.Workloads, workloadResult{
			Name: w.name, Why: w.why, SimWhat: w.simWhat, Reference: w.reference,
			Timed: timed, Traced: traced, SimIdentical: timed.Digest == traced.Digest, Spans: path,
		})
	}
	fmt.Fprintln(stderr, "bench: layer kernels")
	set.Kernels = runKernels(in.seed, fullKernelTime(budget))
	set.Host.LoadAfter = loadAverage()
	set.markNoisy()

	set.print(stdout)
	path := filepath.Join(outdir, fmt.Sprintf("results-seed%d.json", in.seed))
	if err := set.write(path); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresults: %s\n", path)
	if bad := set.failures(); len(bad) > 0 {
		for _, e := range bad {
			fmt.Fprintln(stderr, "bench: FAILED:", e)
		}
		return 1
	}
	return 0
}
