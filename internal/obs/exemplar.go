package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flashfc/internal/trace"
)

// Exemplar rendering: a tail campaign reduces thousands of runs to a
// handful of percentiles; the exemplar files put the runs back. For each
// replayed percentile exemplar, WriteExemplar emits
//
//	<name>.trace.json  — the replay's full span/point trace in Chrome
//	                     trace-event form (load at ui.perfetto.dev), and
//	<name>.json        — a summary: which run/seed the observation came
//	                     from, whether the traced containment time matched
//	                     the campaign's recorded observation exactly, and
//	                     the recovery critical path with its dominant
//	                     phase named (the -trace-critical report as data).
//
// Both files are byte-deterministic: the replay is a pure function of the
// campaign's base seed, so CI compares them across -parallel settings.

// ExemplarTrace is one replayed percentile exemplar ready to render.
type ExemplarTrace struct {
	// Name is the file stem, e.g. "fail-slow-p999".
	Name string
	// Fault names the scenario's fault class.
	Fault string
	// Pct is the percentile the exemplar supports (50, 99, 99.9).
	Pct float64
	// Run and Seed identify the campaign run behind the observation.
	Run  int
	Seed int64
	// CampaignNS is the containment time the campaign recorded for this
	// run; TracedNS is what the traced replay measured. Determinism makes
	// them equal — a mismatch means the replay contract is broken.
	CampaignNS int64
	TracedNS   int64
	// Tracer holds the replay's trace.
	Tracer *trace.Tracer
}

// ExemplarName builds the conventional file stem: "<fault>-p<pct>" with
// the percentile's dot dropped ("fail-slow-p999" for 99.9).
func ExemplarName(fault string, pct float64) string {
	p := strings.ReplaceAll(fmt.Sprintf("%g", pct), ".", "")
	return fmt.Sprintf("%s-p%s", fault, p)
}

// exemplarSummary is the <name>.json schema. Field order fixes byte order.
type exemplarSummary struct {
	Name       string           `json:"name"`
	Fault      string           `json:"fault"`
	Pct        float64          `json:"pct"`
	Run        int              `json:"run"`
	Seed       int64            `json:"seed"`
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

// WriteExemplar writes the exemplar's trace and summary files into dir
// (created if missing).
func WriteExemplar(dir string, e ExemplarTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, e.Name+".trace.json"))
	if err != nil {
		return err
	}
	werr := e.Tracer.WriteChromeJSON(tf)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: exemplar trace %s: %w", e.Name, werr)
	}

	sum := exemplarSummary{
		Name: e.Name, Fault: e.Fault, Pct: e.Pct, Run: e.Run, Seed: e.Seed,
		CampaignNS: e.CampaignNS, TracedNS: e.TracedNS,
		Match:    e.TracedNS == e.CampaignNS,
		Critical: criticalOf(e.Tracer),
	}
	b, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(filepath.Join(dir, e.Name+".json"), b, 0o644); err != nil {
		return err
	}
	return nil
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
	cs := &criticalSummary{Root: best.RootName, DurationNS: int64(best.Duration())}
	dur := float64(best.Duration())
	for _, s := range best.Steps {
		pct := 0.0
		if dur > 0 {
			pct = round1(100 * float64(s.Self) / dur)
		}
		label := s.Name
		if s.Arg != 0 {
			label = fmt.Sprintf("%s#%d", s.Name, s.Arg)
		}
		cs.Steps = append(cs.Steps, criticalStep{
			Step: label, Node: s.Node, Depth: s.Depth, SelfNS: int64(s.Self), PctOf: pct,
		})
	}
	dom := 0
	for i := range cs.Steps {
		if cs.Steps[i].SelfNS > cs.Steps[dom].SelfNS {
			dom = i
		}
	}
	cs.Dominant = cs.Steps[dom]
	return cs
}

// round1 rounds to one decimal so the summary JSON never carries float
// noise that could differ across architectures.
func round1(x float64) float64 { return float64(int64(x*10+0.5)) / 10 }
