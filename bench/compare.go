package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkJSON finds BENCHMARK.json in the working directory or the
// nearest directory above it: the benchmark runs from bench/, the file sits
// one level up.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var bj benchmarkJSON
			if err := json.Unmarshal(b, &bj); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &bj, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worseBy is how much b is worse than a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func allBetter(a, b measure, better string) bool {
	if len(a.Samples) == 0 || len(b.Samples) == 0 {
		return false
	}
	for _, x := range a.Samples {
		for _, y := range b.Samples {
			if worseBy(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges b against a under bound. Worse by more than the bound and
// by more than the samples' own spread is a regression; a spread wider than
// the bound leaves the row unresolved — not unchanged — unless every sample
// of b beats every sample of a.
func verdict(a, b measure, better string, bound float64) string {
	worse := worseBy(a.Value, b.Value, better)
	spread := a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	switch {
	case worse > bound && worse > spread:
		return verdictRegressed
	case spread > bound && !allBetter(a, b, better):
		return verdictUnresolved
	default:
		return verdictOK
	}
}

// compareFiles prints one row per (metric, workload) and exits non-zero on
// any regression, any failed_share increase, or — at equal seeds — any
// simulated statistic that moved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResultSet(pathA)
	b, errB := loadResultSet(pathB)
	bj, errJ := loadBenchmarkJSON()
	for _, err := range []error{errA, errB, errJ} {
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return compareSets(a, b, bj, stdout)
}

func compareSets(a, b *resultSet, bj *benchmarkJSON, out io.Writer) int {
	sameInputs := a.Seed == b.Seed && a.Smoke == b.Smoke
	fmt.Fprintf(out, "A: seed %d commit %s host_cpus %d noisy %v\n", a.Seed, a.Host.Commit, a.Host.NumCPU, a.Noisy)
	fmt.Fprintf(out, "B: seed %d commit %s host_cpus %d noisy %v\n", b.Seed, b.Host.Commit, b.Host.NumCPU, b.Noisy)
	if !sameInputs {
		fmt.Fprintln(out, "seeds differ: simulated statistics are not compared")
	}
	fmt.Fprintf(out, "\n%-18s %-13s %12s %12s %12s %12s %9s %6s  %s\n",
		"metric", "workload", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "bound", "verdict")
	bad := 0
	row := func(metric, workload string, ma, mb measure, better string, bound float64, v string) {
		fmt.Fprintf(out, "%-18s %-13s %12.4f %12s %12.4f %12s %+8.2f%% %5.0f%%  %s\n",
			metric, workload, ma.Value, fmt.Sprintf("%.4g..%.4g", ma.Q1, ma.Q3),
			mb.Value, fmt.Sprintf("%.4g..%.4g", mb.Q1, mb.Q3),
			-100*worseBy(ma.Value, mb.Value, "higher"), 100*bound, v)
		if v == verdictRegressed {
			bad++
		}
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadResult
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "%s: missing from B\n", wa.Name)
			bad++
			continue
		}
		for _, d := range bj.EndToEnd {
			ma, mb := wa.Timed.Metrics[d.Name], wb.Timed.Metrics[d.Name]
			row(d.Name, wa.Name, ma, mb, d.Better, d.Bound, verdict(ma, mb, d.Better, d.Bound))
		}
		// failed_share may not rise at all; the simulated statistics may
		// not move at all when the inputs are the same.
		fa, fb := wa.Timed.Metrics["failed_share"], wb.Timed.Metrics["failed_share"]
		v := verdictOK
		if fb.Value > fa.Value || wb.Traced.Metrics["failed_share"].Value > wa.Traced.Metrics["failed_share"].Value {
			v = verdictRegressed
		}
		row("failed_share", wa.Name, fa, fb, "lower", 0, v)
		if !sameInputs {
			continue
		}
		sa, sb := wa.Timed.Metrics["sim_ms_p50"], wb.Timed.Metrics["sim_ms_p50"]
		v = verdictOK
		if sa.Value != sb.Value {
			v = verdictRegressed
		}
		row("sim_ms_p50", wa.Name, sa, sb, "lower", 0, v)
		identical := wa.Timed.Digest == wb.Timed.Digest && wa.Traced.Digest == wb.Traced.Digest
		var moved []string
		for _, d := range exactDefs {
			if wa.Traced.Metrics[d.Name].Value != wb.Traced.Metrics[d.Name].Value {
				moved = append(moved, d.Name)
			}
		}
		fmt.Fprintf(out, "%-18s %-13s sim_identical %v", "digest", wa.Name, identical)
		if len(moved) > 0 {
			fmt.Fprintf(out, "; exact counts moved: %s", strings.Join(moved, ", "))
		}
		fmt.Fprintln(out)
		if !identical || len(moved) > 0 {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d rows regressed\n", bad)
		return 1
	}
	fmt.Fprintln(out, "\nno regression")
	return 0
}
