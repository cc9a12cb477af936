package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flashfc/internal/trace"
)

// exemplarName builds the conventional summary file stem: "<fault>-p<pct>"
// with the percentile's dot dropped ("fail-slow-p999" for 99.9).
func exemplarName(fault string, pct float64) string {
	p := strings.ReplaceAll(fmt.Sprintf("%g", pct), ".", "")
	return fmt.Sprintf("%s-p%s", fault, p)
}

// exemplarSummary is the <fault>-p<pct>.json schema. Field order fixes byte
// order.
type exemplarSummary struct {
	Name       string           `json:"name"`
	Fault      string           `json:"fault"`
	Pct        float64          `json:"pct"`
	Run        int              `json:"run"`
	Seed       int64            `json:"seed"`
	Trace      string           `json:"trace"`
	CampaignNS int64            `json:"campaign_ns"`
	TracedNS   int64            `json:"traced_ns"`
	Match      bool             `json:"match"`
	Critical   *criticalSummary `json:"critical,omitempty"`
}

// criticalSummary is the recovery critical path as data: the chain of
// steps whose self-times partition the recovery exactly, plus the dominant
// step — the phase that explains the exemplar's latency.
type criticalSummary struct {
	Root       string         `json:"root"`
	DurationNS int64          `json:"duration_ns"`
	Dominant   criticalStep   `json:"dominant"`
	Steps      []criticalStep `json:"steps"`
}

type criticalStep struct {
	Step   string  `json:"step"` // name#arg as in the critical report
	Node   int     `json:"node"` // -1 = machine-wide
	Depth  int     `json:"depth"`
	SelfNS int64   `json:"self_ns"`
	PctOf  float64 `json:"pct_of_recovery"`
}

// WriteExemplars puts a tail campaign's runs back behind its percentiles.
// For the replays of ReplayTailExemplars it writes into dir (created if
// missing) one <fault>-run<i>.trace.json per distinct run — its Chrome
// trace-event export, loadable at ui.perfetto.dev — and one
// <fault>-p<pct>.json per replay: the run and seed behind the percentile,
// its trace file, whether the traced containment time matched the
// campaign's observation exactly, and the recovery critical path with its
// dominant step named (the -trace-critical report as data). A run behind
// several percentiles (p99 and p999 at small run counts) has one trace
// file. Every file is byte-deterministic: the replays are a pure function
// of the campaign's base seed.
func WriteExemplars(dir string, es []ExemplarReplay) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := map[string]bool{}
	for _, e := range es {
		fault := e.Fault.String()
		traceFile := fmt.Sprintf("%s-run%d.trace.json", fault, e.Run)
		if !written[traceFile] {
			written[traceFile] = true
			if err := writeChrome(filepath.Join(dir, traceFile), e.Trace); err != nil {
				return fmt.Errorf("experiments: exemplar trace %s: %w", traceFile, err)
			}
		}
		sum := exemplarSummary{
			Name: exemplarName(fault, e.Pct), Fault: fault, Pct: e.Pct, Run: e.Run, Seed: e.Seed,
			Trace:      traceFile,
			CampaignNS: int64(e.CampaignTime), TracedNS: int64(e.TracedTime),
			Match:    e.Match(),
			Critical: criticalOf(e.Trace),
		}
		b, err := json.MarshalIndent(sum, "", " ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if err := os.WriteFile(filepath.Join(dir, sum.Name+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeChrome writes tr's Chrome trace-event export to path.
func writeChrome(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteChromeJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// criticalOf reduces the tracer's critical paths to the summary of the
// longest one (the recovery; sub-recoveries of superseded epochs are
// shorter). Nil when the trace recorded no spans.
func criticalOf(t *trace.Tracer) *criticalSummary {
	paths := t.CriticalPaths()
	if len(paths) == 0 {
		return nil
	}
	best := paths[0]
	for _, p := range paths[1:] {
		if p.Duration() > best.Duration() {
			best = p
		}
	}
	dur := float64(best.Duration())
	step := func(s trace.CriticalStep) criticalStep {
		pct := 0.0
		if dur > 0 {
			pct = round1(100 * float64(s.Self) / dur)
		}
		return criticalStep{Step: s.Label(), Node: s.Node, Depth: s.Depth, SelfNS: int64(s.Self), PctOf: pct}
	}
	cs := &criticalSummary{Root: best.RootName, DurationNS: int64(best.Duration()), Dominant: step(best.Dominant())}
	for _, s := range best.Steps {
		cs.Steps = append(cs.Steps, step(s))
	}
	return cs
}

// round1 rounds to one decimal so the summary JSON never carries float
// noise that could differ across architectures.
func round1(x float64) float64 { return float64(int64(x*10+0.5)) / 10 }
