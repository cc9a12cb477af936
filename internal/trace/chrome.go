package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"flashfc/internal/sim"
)

// Chrome trace-event export: the span/point stream rendered as the JSON
// array format understood by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Each node becomes a process (pid = node+1; pid 0 is the
// machine), with one thread per stream: spans on tid 0, packet points on
// tid 1, MAGIC points on tid 2 and the timeline points on tid 3.
//
// The output is deterministic: spans are emitted in creation order, points
// in recorded order, args objects via encoding/json (which
// sorts map keys), timestamps as exact microsecond fractions of the
// simulated nanosecond clock. Two runs with identical inputs produce
// byte-identical files.

const (
	tidSpans    = 0
	tidPackets  = 1
	tidMagic    = 2
	tidTimeline = 3
)

// chromeEvent is one entry of the trace-event array. Field order here fixes
// the key order in the output.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// pidFor maps a simulated node id to a trace process id.
func pidFor(node int) int {
	if node < 0 {
		return 0 // the machine
	}
	return node + 1
}

// WriteChromeJSON writes the full trace as a Chrome trace-event JSON array.
// Still-open spans are clamped to the last observed timestamp. A nil tracer
// writes an empty array.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	spans := t.SnapshotSpans()
	points := t.Points()

	// Metadata first: name every (process, thread) pair in use so Perfetto
	// shows "node 3 / packets" instead of bare ids.
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

	out := make([]chromeEvent, 0, 2*len(ordered)+len(spans)+len(points))
	seenPid := map[int]bool{}
	for _, th := range ordered {
		if !seenPid[th.pid] {
			seenPid[th.pid] = true
			name := "machine"
			if th.pid > 0 {
				name = fmt.Sprintf("node %d", th.pid-1)
			}
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: th.pid, Tid: 0,
				Args: map[string]any{"name": name},
			})
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: th.pid, Tid: th.tid,
			Args: map[string]any{"name": threadName(th.tid)},
		})
	}

	for _, s := range spans {
		dur := us(s.End - s.Start)
		out = append(out, chromeEvent{
			Name: s.Name, Cat: "span", Ph: "X", Ts: us(s.Start), Dur: &dur,
			Pid: pidFor(s.Node), Tid: tidSpans,
			Args: map[string]any{"span": uint64(s.ID), "parent": uint64(s.Parent), "arg": s.Arg},
		})
	}
	for _, p := range points {
		out = append(out, chromeEvent{
			Name: p.Name, Cat: p.Cat, Ph: "i", Ts: us(p.T),
			Pid: pidFor(p.Node), Tid: pointTid(p.Cat), S: "t",
			Args: map[string]any{"flow": p.Flow, "a": p.A, "b": p.B},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// us converts a simulated time (nanoseconds) to trace-event microseconds.
func us(t sim.Time) float64 { return float64(t) / 1000.0 }

func pointTid(cat string) int {
	switch cat {
	case "pkt":
		return tidPackets
	case "magic":
		return tidMagic
	default:
		return tidTimeline
	}
}

func threadName(tid int) string {
	switch tid {
	case tidSpans:
		return "recovery"
	case tidPackets:
		return "packets"
	case tidMagic:
		return "magic"
	default:
		return "timeline"
	}
}
