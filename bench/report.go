package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const resultSchema = "flashfc-bench/1"

// resultSet is one invocation of the full benchmark: what -compare reads.
type resultSet struct {
	Schema  string     `json:"schema"`
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Smoke   bool       `json:"smoke"`
	Host    hostRecord `json:"host"`
	// Noisy marks a set whose host was loaded or whose reps spread wider
	// than the runs_per_s bound; NoisyWhy says which.
	Noisy     bool               `json:"noisy"`
	NoisyWhy  []string           `json:"noisy_why,omitempty"`
	Workloads []workloadResult   `json:"workloads"`
	Kernels   map[string]measure `json:"kernels"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	SimWhat   string `json:"sim_what"`
	Reference string `json:"reference"`
	// Timed is the end-to-end set (façade, tracing off); Traced the traced
	// run (replica scripts with spans, alternated with façade reps).
	Timed  setResult `json:"timed"`
	Traced setResult `json:"traced"`
	// SimIdentical says the two sets' simulated-statistics digests agree.
	SimIdentical bool   `json:"sim_identical"`
	Spans        string `json:"spans"`
}

// hostRecord says where a set was measured, so two sets are only compared
// knowingly across hosts.
type hostRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	LoadBefore float64 `json:"load1_before"`
	LoadAfter  float64 `json:"load1_after"`
}

func readHost() hostRecord {
	h := hostRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown", LoadBefore: loadAverage()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// loadAverage is the 1-minute load average, or -1 where the host has none.
func loadAverage() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

func (s *resultSet) markNoisy() {
	if s.Host.LoadBefore > 0.5*float64(s.Host.NumCPU) {
		s.NoisyWhy = append(s.NoisyWhy, fmt.Sprintf("starting load %.2f exceeds half of %d CPUs", s.Host.LoadBefore, s.Host.NumCPU))
	}
	bound := findDef("runs_per_s").Bound
	for i := range s.Workloads {
		if sp := s.Workloads[i].Timed.Metrics["runs_per_s"].spread(); sp > bound {
			s.NoisyWhy = append(s.NoisyWhy, fmt.Sprintf("%s: rep IQR/median %.3f exceeds the runs_per_s bound %.2f", s.Workloads[i].Name, sp, bound))
		}
	}
	s.Noisy = len(s.NoisyWhy) > 0
}

// failures lists everything that makes the invocation exit non-zero.
func (s *resultSet) failures() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Timed.Errors...)
		out = append(out, w.Traced.Errors...)
		if !w.SimIdentical {
			out = append(out, fmt.Sprintf("%s: timed digest %s, traced digest %s", w.Name, w.Timed.Digest, w.Traced.Digest))
		}
	}
	return out
}

func (s *resultSet) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, resultSchema)
	}
	return &s, nil
}

func printMeasure(out io.Writer, name string, m measure, unit string) {
	if m.N > 1 {
		fmt.Fprintf(out, "  %-44s %14.4f %-6s (median %.4f, q1 %.4f, q3 %.4f, n %d)\n",
			name, m.Value, unit, median(m.Samples), m.Q1, m.Q3, m.N)
		return
	}
	fmt.Fprintf(out, "  %-44s %14.4f %s\n", name, m.Value, unit)
}

// print writes every metric by name with its unit, per workload.
func (s *resultSet) print(out io.Writer) {
	h := s.Host
	fmt.Fprintf(out, "flashfc bench: seed %d, %.0f s timed sets, commit %s\n", s.Seed, s.Seconds, h.Commit)
	fmt.Fprintf(out, "host: %s, host_cpus %d, GOMAXPROCS %d, %s, load %.2f -> %.2f\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.LoadBefore, h.LoadAfter)
	if s.Noisy {
		fmt.Fprintf(out, "NOISY: %s\n", strings.Join(s.NoisyWhy, "; "))
	}
	rate := map[string]float64{}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		rate[w.Name] = w.Timed.Metrics["runs_per_s"].Value
		fmt.Fprintf(out, "\n== %s: %s\n", w.Name, w.Why)
		fmt.Fprintf(out, " end to end (tracing off, %d reps of %d runs)\n", w.Timed.Reps, w.Timed.RunsPerRep)
		for _, d := range concat(endToEnd, userVisible) {
			printMeasure(out, d.Name, w.Timed.Metrics[d.Name], d.Unit)
		}
		fmt.Fprintf(out, "  sim_ms_p50 is %s; reference: %s\n", w.SimWhat, w.Reference)
		fmt.Fprintf(out, "  %d failed of %d runs; digest %s; sim_identical %v\n",
			w.Timed.Failed+w.Traced.Failed, w.Timed.Attempted+w.Traced.Attempted, w.Timed.Digest[:16], w.SimIdentical)
		fmt.Fprintf(out, " per layer (traced set, %d reps; spans in %s)\n", w.Traced.Reps, w.Spans)
		for _, d := range perLayer {
			if m, ok := w.Traced.Metrics[d.Name]; ok {
				printMeasure(out, d.Name, m, d.Unit)
			}
		}
	}
	if base := rate["fill1024"]; base > 0 {
		fmt.Fprintf(out, "\npartitioned engine: fill1024-p2 / fill1024 runs_per_s = %.2f (base %.3f 1/s) at host_cpus %d\n",
			rate["fill1024-p2"]/base, base, h.NumCPU)
	}
	fmt.Fprintf(out, "\n== layer kernels (host ns per operation, the same on every workload)\n")
	names := make([]string, 0, len(s.Kernels))
	for name := range s.Kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printMeasure(out, name, s.Kernels[name], s.Kernels[name].Unit)
	}
}
