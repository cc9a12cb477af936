// Package obs is the campaign-scale observability layer: where PR 2's
// metrics and PR 3's span traces make a single run legible, obs makes a
// thousand-run campaign legible. It provides two pieces:
//
//   - per-run record streams: every campaign run reduces to one RunRecord
//     (index, derived seed, fault, containment time, verify outcome,
//     events, host accounting), and a RunLog writes them as JSONL ordered
//     by run index regardless of worker scheduling — byte-identical at any
//     worker count;
//   - live progress: a rate-limited Progress reporter on stderr (runs
//     done/total, events/sec, ETA, failures so far) that never touches the
//     JSON-only stdout contract.
//
// The traced replays of a tail campaign's exemplars are rendered next to
// the replay itself, by experiments.WriteExemplars.
//
// Sinks receive records in completion order — that is what makes live
// progress live — and each sink decides whether it needs index order (the
// RunLog reorders internally). All Sink methods are invoked serialized by
// the campaign runner, so implementations need no locking of their own.
package obs

import "time"

// RunRecord is one campaign run reduced to a flat, serializable record.
// The zero-value host fields (WallNS, Worker) keep a record deterministic:
// sinks that honor the byte-identity contract zero them, sinks that want
// host accounting keep them.
type RunRecord struct {
	// Run is the run's index within its batch (0-based, dense).
	Run int `json:"run"`
	// Seed is the run's derived engine seed — the value that reproduces
	// the run exactly (pass it back via -seed on a single run, or to
	// ValidationFromWarm for a warm-forked run).
	Seed int64 `json:"seed"`
	// Fault names the injected fault (class plus parameters), empty for
	// fault-free runs.
	Fault string `json:"fault,omitempty"`
	// Outcome classifies the run: "pass", "fail", "livelock" or "panic".
	Outcome string `json:"outcome"`
	// ContainmentNS is the run's containment time (recovery entry to the
	// last node's completion) in simulated nanoseconds; 0 when recovery
	// never completed.
	ContainmentNS int64 `json:"containment_ns"`
	// AffectedNodes is how many nodes the fault cost the machine.
	AffectedNodes int `json:"affected_nodes"`
	// Events is the run's simulated-event count.
	Events uint64 `json:"events"`
	// Note carries the failure diagnosis (verify mismatch, deadline,
	// panic message); empty on passing runs.
	Note string `json:"note,omitempty"`
	// WallNS is the run's host wall-clock nanoseconds. Host-side: varies
	// run to run, so deterministic sinks zero it.
	WallNS int64 `json:"wall_ns"`
	// Worker is the pool worker that executed the run. Host-side.
	Worker int `json:"worker"`
}

// OK reports whether the run passed.
func (r RunRecord) OK() bool { return r.Outcome == OutcomePass }

// Outcome values.
const (
	OutcomePass  = "pass"
	OutcomeFail  = "fail"
	OutcomePanic = "panic"
	// OutcomeLivelock is a failed run whose recovery the livelock watch
	// stopped: two consecutive epochs met the same drops and stalls.
	OutcomeLivelock = "livelock"
)

// Batch announces a campaign batch to a Sink before its first record:
// campaigns that sweep several fault classes emit one batch per class, and
// run indices restart at 0 with each batch.
type Batch struct {
	// Label names the batch ("tail", "table5.3", ...); informational.
	Label string
	// Fault names the batch's fault class, empty for fault-free sweeps.
	Fault string
	// Runs is the number of records the batch will produce.
	Runs int
}

// Sink consumes a campaign's observability stream. StartBatch and RunDone
// arrive serialized from the campaign runner; RunDone arrives in completion
// order (not index order). Finish is called once after the last batch.
type Sink interface {
	StartBatch(b Batch)
	RunDone(r RunRecord)
	Finish()
}

// Multi fans one observability stream out to several sinks (nil sinks are
// skipped). A nil or empty Multi result is a valid no-op sink.
func Multi(sinks ...Sink) Sink {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}

type multi []Sink

func (m multi) StartBatch(b Batch) {
	for _, s := range m {
		s.StartBatch(b)
	}
}

func (m multi) RunDone(r RunRecord) {
	for _, s := range m {
		s.RunDone(r)
	}
}

func (m multi) Finish() {
	for _, s := range m {
		s.Finish()
	}
}

// StripHost zeroes a record's host-side fields (wall time, worker id),
// leaving only the fields that are a pure function of (seed, run index) —
// the deterministic projection the byte-identity contract is stated over.
func StripHost(r RunRecord) RunRecord {
	r.WallNS = 0
	r.Worker = 0
	return r
}

// hostClock is the host time source; tests may stub it.
var hostClock = time.Now
