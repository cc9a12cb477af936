package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func rec(i int, outcome string) RunRecord {
	return RunRecord{Run: i, Seed: int64(1000 + i), Outcome: outcome,
		ContainmentNS: int64(10 * (i + 1)), Events: uint64(100 * (i + 1)),
		WallNS: int64(7777 + i), Worker: i % 3}
}

// The run log must emit index order no matter the completion order, and the
// bytes must not depend on host fields.
func TestRunLogReorders(t *testing.T) {
	var inOrder, shuffled bytes.Buffer

	a := NewRunLog(&inOrder, false)
	a.StartBatch(Batch{Label: "t", Runs: 5})
	for i := 0; i < 5; i++ {
		a.RunDone(rec(i, OutcomePass))
	}
	a.Finish()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}

	b := NewRunLog(&shuffled, false)
	b.StartBatch(Batch{Label: "t", Runs: 5})
	for _, i := range []int{3, 0, 4, 1, 2} {
		r := rec(i, OutcomePass)
		r.WallNS = int64(i) * 31337 // host noise must not reach the stream
		r.Worker = 9
		b.RunDone(r)
	}
	b.Finish()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(inOrder.Bytes(), shuffled.Bytes()) {
		t.Fatalf("streams differ:\n%s\nvs\n%s", inOrder.String(), shuffled.String())
	}
	lines := strings.Split(strings.TrimRight(inOrder.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[2], `{"run":2,"seed":1002,`) {
		t.Fatalf("line 2 out of order or malformed: %s", lines[2])
	}
	if !strings.Contains(lines[0], `"wall_ns":0,"worker":0`) {
		t.Fatalf("host fields not stripped: %s", lines[0])
	}
}

func TestRunLogHostMode(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf, true)
	l.StartBatch(Batch{Runs: 1})
	l.RunDone(rec(0, OutcomePass))
	l.Finish()
	if !strings.Contains(buf.String(), `"wall_ns":7777,"worker":0`) {
		t.Fatalf("host mode dropped host fields: %s", buf.String())
	}
}

func TestRunLogDetectsProtocolErrors(t *testing.T) {
	t.Run("duplicate", func(t *testing.T) {
		l := NewRunLog(&bytes.Buffer{}, false)
		l.StartBatch(Batch{Label: "d", Runs: 3})
		l.RunDone(rec(0, OutcomePass))
		l.RunDone(rec(0, OutcomePass))
		if l.Err() == nil {
			t.Fatal("duplicate index not detected")
		}
	})
	t.Run("gap", func(t *testing.T) {
		l := NewRunLog(&bytes.Buffer{}, false)
		l.StartBatch(Batch{Label: "g", Runs: 3})
		l.RunDone(rec(0, OutcomePass))
		l.RunDone(rec(2, OutcomePass))
		l.Finish()
		if l.Err() == nil {
			t.Fatal("missing index 1 not detected")
		}
	})
	t.Run("short", func(t *testing.T) {
		l := NewRunLog(&bytes.Buffer{}, false)
		l.StartBatch(Batch{Label: "s", Runs: 3})
		l.RunDone(rec(0, OutcomePass))
		l.Finish()
		if l.Err() == nil {
			t.Fatal("short batch not detected")
		}
	})
}

// Batches restart run indices at 0; the log must accept that and keep both
// batches' records in order.
func TestRunLogMultipleBatches(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf, false)
	for _, label := range []string{"a", "b"} {
		l.StartBatch(Batch{Label: label, Runs: 2})
		l.RunDone(rec(1, OutcomePass))
		l.RunDone(rec(0, OutcomeFail))
	}
	l.Finish()
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for i, want := range []string{`"run":0`, `"run":1`, `"run":0`, `"run":1`} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %s, want %s", i, lines[i], want)
		}
	}
}

func TestMulti(t *testing.T) {
	var a, b bytes.Buffer
	la, lb := NewRunLog(&a, false), NewRunLog(&b, false)
	m := Multi(nil, la, nil, lb)
	m.StartBatch(Batch{Runs: 1})
	m.RunDone(rec(0, OutcomePass))
	m.Finish()
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Multi did not fan out to both sinks")
	}
	if Multi(nil, la) != Sink(la) {
		t.Fatal("singleton Multi should unwrap")
	}
}

func TestProgress(t *testing.T) {
	base := time.Unix(0, 0)
	now := base
	hostClock = func() time.Time { return now }
	defer func() { hostClock = time.Now }()

	var buf bytes.Buffer
	p := &Progress{W: &buf, Interval: -1} // no rate limit: every run prints
	p.StartBatch(Batch{Label: "tail", Fault: "fail-slow", Runs: 4})
	for i := 0; i < 4; i++ {
		now = base.Add(time.Duration(i+1) * time.Second)
		out := OutcomePass
		if i == 2 {
			out = OutcomePanic
		}
		p.RunDone(RunRecord{Run: i, Outcome: out, Events: 2_000_000})
	}
	p.Finish()

	s := buf.String()
	if !strings.Contains(s, "2/4 runs") || !strings.Contains(s, "4/4 runs") {
		t.Fatalf("missing progress counts: %q", s)
	}
	if !strings.Contains(s, "1 failed") {
		t.Fatalf("panic run not counted as failed: %q", s)
	}
	if !strings.Contains(s, "Mev/s") || !strings.Contains(s, "ETA") {
		t.Fatalf("missing rate/ETA: %q", s)
	}
	if !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
		t.Fatalf("only Finish may newline-terminate: %q", s)
	}
	if !strings.Contains(s, "done in 4s") {
		t.Fatalf("missing final duration: %q", s)
	}
}

// Rate limiting: two runs inside one interval produce one line.
func TestProgressRateLimit(t *testing.T) {
	base := time.Unix(0, 0)
	now := base
	hostClock = func() time.Time { return now }
	defer func() { hostClock = time.Now }()

	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.StartBatch(Batch{Runs: 3})
	now = base.Add(time.Millisecond)
	p.RunDone(RunRecord{Run: 0, Outcome: OutcomePass})
	first := buf.Len()
	now = base.Add(2 * time.Millisecond) // within DefaultProgressInterval
	p.RunDone(RunRecord{Run: 1, Outcome: OutcomePass})
	if buf.Len() != first {
		t.Fatal("second run inside the interval should not print")
	}
	now = base.Add(time.Second)
	p.RunDone(RunRecord{Run: 2, Outcome: OutcomePass})
	if buf.Len() == first {
		t.Fatal("run after the interval should print")
	}
}
