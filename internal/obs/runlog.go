package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// RunLog writes one JSONL record per campaign run, ordered by run index
// regardless of the worker scheduling that produced them: records arriving
// out of order are parked in a reorder buffer and flushed as soon as the
// contiguous prefix they complete is known. With host fields stripped (the
// default), the stream is a pure function of (base seed, run index), so the
// bytes are identical at any -parallel setting — the property the
// experiments test suite and CI enforce.
//
// Encoding is one json.Marshal'd RunRecord per line with the struct's fixed
// field order; no indenting, no map keys, nothing host-dependent.
type RunLog struct {
	w io.Writer
	// host keeps the host-side fields (wall_ns, worker) instead of
	// zeroing them; it trades byte-identity for host accounting.
	host bool

	batch   Batch
	next    int               // next run index to write in this batch
	pending map[int]RunRecord // completed runs waiting on a predecessor
	err     error             // first write/protocol error, sticky
}

// NewRunLog returns a RunLog writing to w. host selects whether records
// keep their host-side fields (breaking byte-identity across worker
// counts) or zero them (the default deterministic stream).
func NewRunLog(w io.Writer, host bool) *RunLog {
	return &RunLog{w: w, host: host, pending: map[int]RunRecord{}}
}

// StartBatch begins a new batch: the previous batch must have flushed
// completely (every index seen), or the log records a protocol error.
func (l *RunLog) StartBatch(b Batch) {
	l.closeBatch()
	l.batch = b
	l.next = 0
}

// RunDone accepts one completed run, in any order; the record is written
// once every lower index of its batch has been written.
func (l *RunLog) RunDone(r RunRecord) {
	if !l.host {
		r = StripHost(r)
	}
	// A duplicate index would silently corrupt the ordered stream.
	if _, dup := l.pending[r.Run]; dup || r.Run < l.next {
		l.fail(fmt.Errorf("obs: duplicate run record %d in batch %q", r.Run, l.batch.Label))
		return
	}
	l.pending[r.Run] = r
	for {
		rec, ok := l.pending[l.next]
		if !ok {
			return
		}
		delete(l.pending, l.next)
		l.write(rec)
		l.next++
	}
}

// Finish flushes the final batch; any still-missing index is a protocol
// error reported by Err.
func (l *RunLog) Finish() { l.closeBatch() }

// Err returns the first write or protocol error the log hit, if any.
func (l *RunLog) Err() error { return l.err }

// closeBatch verifies the current batch drained completely.
func (l *RunLog) closeBatch() {
	if len(l.pending) > 0 {
		l.fail(fmt.Errorf("obs: batch %q ended with %d unflushed records (next expected index %d)",
			l.batch.Label, len(l.pending), l.next))
		l.pending = map[int]RunRecord{}
	}
	if l.batch.Runs > 0 && l.next != l.batch.Runs {
		l.fail(fmt.Errorf("obs: batch %q wrote %d of %d records", l.batch.Label, l.next, l.batch.Runs))
	}
}

func (l *RunLog) write(r RunRecord) {
	if l.err != nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		l.fail(err)
		return
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil {
		l.fail(err)
	}
}

func (l *RunLog) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}
