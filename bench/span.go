package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run, recorded by the benchmark's
// own replica scripts around each call into a layer's public functions.
// Spans of one simulated run share Run; Parent is the span that caused this
// one (0 for a rep's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
	Run    int    `json:"run"` // run index within the rep; -1 outside any run
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // host ns since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the replica scripts run untraced.
type tracer struct {
	base  time.Time
	spans []span
	open  []int // stack of indices into spans
	rep   int
	run   int
}

func newTracer() *tracer { return &tracer{base: time.Now(), run: -1} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Rep: t.rep, Run: t.run,
		Name: name, Start: int64(time.Since(t.base)),
	})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.base))
	t.open = t.open[:n]
}

// beginRun opens the span of simulated run i; endRun closes it.
func (t *tracer) beginRun(i int) {
	if t == nil {
		return
	}
	t.run = i
	t.begin(spanRun)
}

func (t *tracer) endRun() {
	if t == nil {
		return
	}
	t.end()
	t.run = -1
}

// selfTimes returns, per span (indexed like spans), its duration minus the
// part of it its child spans cover. Children of one parent never overlap:
// every span is opened and closed on the one goroutine that drives the run.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// spanFile is the on-disk form of one workload's traced run.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	b, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
