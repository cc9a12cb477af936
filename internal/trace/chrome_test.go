package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"flashfc/internal/sim"
)

// chromeEvent is the event struct the export used to build and hand to
// encoding/json, kept here as the reference the streamed encoding is
// checked against.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// referenceChromeJSON is the struct-and-encoding/json export.
func referenceChromeJSON(t *Tracer) []byte {
	spans := t.SnapshotSpans()
	points := t.Points()
	type thread struct{ pid, tid int }
	threads := map[thread]struct{}{}
	for _, s := range spans {
		threads[thread{pidFor(s.Node), tidSpans}] = struct{}{}
	}
	for _, p := range points {
		threads[thread{pidFor(p.Node), pointTid(p.Cat)}] = struct{}{}
	}
	ordered := make([]thread, 0, len(threads))
	for th := range threads {
		ordered = append(ordered, th)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].pid != ordered[j].pid {
			return ordered[i].pid < ordered[j].pid
		}
		return ordered[i].tid < ordered[j].tid
	})
	us := func(t sim.Time) float64 { return float64(t) / 1000.0 }
	out := []chromeEvent{}
	seenPid := map[int]bool{}
	for _, th := range ordered {
		if !seenPid[th.pid] {
			seenPid[th.pid] = true
			name := "machine"
			if th.pid > 0 {
				name = fmt.Sprintf("node %d", th.pid-1)
			}
			out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: th.pid, Args: map[string]any{"name": name}})
		}
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: th.pid, Tid: th.tid,
			Args: map[string]any{"name": threadName(th.tid)}})
	}
	for _, s := range spans {
		dur := us(s.End - s.Start)
		out = append(out, chromeEvent{Name: s.Name, Cat: "span", Ph: "X", Ts: us(s.Start), Dur: &dur,
			Pid: pidFor(s.Node), Tid: tidSpans,
			Args: map[string]any{"span": uint64(s.ID), "parent": uint64(s.Parent), "arg": s.Arg}})
	}
	for _, p := range points {
		out = append(out, chromeEvent{Name: p.Name, Cat: p.Cat, Ph: "i", Ts: us(p.T),
			Pid: pidFor(p.Node), Tid: pointTid(p.Cat), S: "t",
			Args: map[string]any{"flow": p.Flow, "a": p.A, "b": p.B}})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		panic(err)
	}
	return b
}

// differentialTracer covers every event shape: machine-wide and per-node
// spans (one left open, so it is clamped), all point categories, names
// that need escaping, timestamps with and without a fraction, large clocks,
// flows and negative arguments.
func differentialTracer() *Tracer {
	tr := New()
	root := tr.EnsureRoot(1_000, "recovery")
	n := tr.Begin(1_234_567, 3, "node-recovery", root, 2)
	tr.Begin(1_500_001, 3, "gossip-round", n, 1) // left open
	tr.Point(1_600_000, 3, "pkt", "inject", 42, 7, 1)
	tr.Point(4_999_999_999, 0, "pkt", "drop-headtimeout", 1<<40|5, -1, 0)
	tr.Point(2_000_010, 5, "magic", "nak-sent", 0, 0x4000_0000, -3)
	tr.Record(2_000_100, -1, KindFault, `node 5 "failure" \ <&> é`)
	tr.Record(3_000_000, 1, KindPhase, "tab\there\nnewline\x01")
	tr.End(3_333_333, n)
	tr.Begin(0, 7, "drain-attempt", 0, -4)
	return tr
}

// The streamed export parses to exactly the objects encoding/json produced
// from the old event structs.
func TestChromeJSONMatchesStructEncoding(t *testing.T) {
	for name, tr := range map[string]*Tracer{"empty": New(), "nil": nil, "every shape": differentialTracer()} {
		var got bytes.Buffer
		if err := tr.WriteChromeJSON(&got); err != nil {
			t.Fatal(err)
		}
		var streamed, reference []any
		if err := json.Unmarshal(got.Bytes(), &streamed); err != nil {
			t.Fatalf("%s: streamed export is not JSON: %v\n%s", name, err, got.Bytes())
		}
		if err := json.Unmarshal(referenceChromeJSON(tr), &reference); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, reference) {
			t.Errorf("%s: streamed export differs from the struct encoding\nstreamed:  %v\nreference: %v", name, streamed, reference)
		}
		if lines := bytes.Count(got.Bytes(), []byte("\n")); lines != len(streamed)+2 {
			t.Errorf("%s: %d lines for %d events, want one event per line", name, lines, len(streamed))
		}
	}
}
