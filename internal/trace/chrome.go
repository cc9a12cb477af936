package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"flashfc/internal/sim"
)

// Chrome trace-event export: the span/point stream rendered as the JSON
// array format understood by Perfetto (ui.perfetto.dev) and
// chrome://tracing. Each node becomes a process (pid = node+1; pid 0 is the
// machine), with one thread per stream: spans on tid 0, packet points on
// tid 1, MAGIC points on tid 2 and the timeline points on tid 3.
//
// The writer streams: each event is encoded by hand straight into a
// buffered writer, one event per line, so a trace of millions of packet
// points never exists as a second in-memory copy. The output is
// deterministic: thread metadata in (pid, tid) order, then spans in
// creation order and points in recorded order, every object with a fixed
// key order, timestamps as exact decimal microseconds of the simulated
// nanosecond clock. Two runs with identical inputs produce byte-identical
// files.

const (
	tidSpans    = 0
	tidPackets  = 1
	tidMagic    = 2
	tidTimeline = 3
)

// pidFor maps a simulated node id to a trace process id.
func pidFor(node int) int {
	if node < 0 {
		return 0 // the machine
	}
	return node + 1
}

// WriteChromeJSON writes the full trace as a Chrome trace-event JSON array,
// one event per line. Still-open spans are clamped to the last observed
// timestamp. A nil tracer writes an empty array.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	spans := t.SnapshotSpans()
	points := t.Points()

	// Metadata first: name every (process, thread) pair in use so Perfetto
	// shows "node 3 / packets" instead of bare ids. One pass over the events
	// collects each process's threads as a bit set.
	threads := map[int]uint8{}
	for _, s := range spans {
		threads[pidFor(s.Node)] |= 1 << tidSpans
	}
	for _, p := range points {
		threads[pidFor(p.Node)] |= 1 << pointTid(p.Cat)
	}
	pids := make([]int, 0, len(threads))
	for pid := range threads {
		pids = append(pids, pid)
	}
	sort.Ints(pids)

	c := &chromeWriter{w: bufio.NewWriterSize(w, 64<<10), quoted: map[string][]byte{}}
	c.w.WriteByte('[')
	for _, pid := range pids {
		name := "machine"
		if pid > 0 {
			name = "node " + strconv.Itoa(pid-1)
		}
		c.meta("process_name", pid, tidSpans, name)
		for tid := tidSpans; tid <= tidTimeline; tid++ {
			if threads[pid]&(1<<tid) != 0 {
				c.meta("thread_name", pid, tid, threadName(tid))
			}
		}
	}
	for _, s := range spans {
		c.event(s.Name, "span", "X", s.Start, s.End-s.Start, pidFor(s.Node), tidSpans)
		c.int(`,"args":{"arg":`, s.Arg)
		c.uint(`,"parent":`, uint64(s.Parent))
		c.uint(`,"span":`, uint64(s.ID))
		c.end("}}")
	}
	for _, p := range points {
		c.event(p.Name, p.Cat, "i", p.T, -1, pidFor(p.Node), pointTid(p.Cat))
		c.int(`,"s":"t","args":{"a":`, p.A)
		c.int(`,"b":`, p.B)
		c.uint(`,"flow":`, p.Flow)
		c.end("}}")
	}
	c.w.WriteString("\n]\n")
	return c.w.Flush()
}

// chromeWriter encodes one event at a time into b and streams it to w.
// Write errors stick in w and surface at its Flush.
type chromeWriter struct {
	w      *bufio.Writer
	b      []byte
	n      int               // events written
	quoted map[string][]byte // JSON encodings of the strings seen so far
}

// event starts an event line with the keys every event has, in the order
// name, cat (omitted when empty), ph, ts, dur (omitted when negative), pid,
// tid.
func (c *chromeWriter) event(name, cat, ph string, ts, dur sim.Time, pid, tid int) {
	sep := ",\n"
	if c.n == 0 {
		sep = "\n"
	}
	c.n++
	c.b = append(append(c.b[:0], sep...), `{"name":`...)
	c.str(name)
	if cat != "" {
		c.b = append(c.b, `,"cat":`...)
		c.str(cat)
	}
	c.b = append(c.b, `,"ph":`...)
	c.str(ph)
	c.b = appendMicros(append(c.b, `,"ts":`...), ts)
	if dur >= 0 {
		c.b = appendMicros(append(c.b, `,"dur":`...), dur)
	}
	c.int(`,"pid":`, int64(pid))
	c.int(`,"tid":`, int64(tid))
}

// meta writes one process_name/thread_name metadata event.
func (c *chromeWriter) meta(kind string, pid, tid int, name string) {
	c.event(kind, "", "M", 0, -1, pid, tid)
	c.b = append(c.b, `,"args":{"name":`...)
	c.str(name)
	c.end("}}")
}

// int and uint append a key (with its leading comma) and a number.
func (c *chromeWriter) int(k string, v int64)   { c.b = strconv.AppendInt(append(c.b, k...), v, 10) }
func (c *chromeWriter) uint(k string, v uint64) { c.b = strconv.AppendUint(append(c.b, k...), v, 10) }

// str appends s as a JSON string. Names come from a small vocabulary, so
// each distinct one is encoded once.
func (c *chromeWriter) str(s string) {
	q, ok := c.quoted[s]
	if !ok {
		q, _ = json.Marshal(s) // a string always marshals
		c.quoted[s] = q
	}
	c.b = append(c.b, q...)
}

// end closes the event line and writes it out.
func (c *chromeWriter) end(close string) { c.w.Write(append(c.b, close...)) }

// appendMicros appends a simulated time (nanoseconds) as exact decimal
// trace-event microseconds: the integer part, then up to three fraction
// digits with trailing zeros dropped ("1234.5" for 1 234 500 ns).
func appendMicros(b []byte, t sim.Time) []byte {
	b = strconv.AppendInt(b, int64(t/1000), 10)
	frac := t % 1000
	if frac == 0 {
		return b
	}
	b = append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return bytes.TrimRight(b, "0")
}

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
