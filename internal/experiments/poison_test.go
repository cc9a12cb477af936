package experiments

import (
	"reflect"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/magic"
	"flashfc/internal/metrics"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// reliableOutcome is everything observable about one reliable-interconnect
// run that a recycled-too-early record could disturb.
type reliableOutcome struct {
	Recovered bool
	Retained  int                       // packets held for end-to-end retransmission after recovery
	Dropped   uint64                    // packets the fabric destroyed
	Cached    [][]cachedLine            // per node, in insertion order
	Memory    map[coherence.Addr]uint64 // home copy of every line the fill wrote
	Events    uint64
	Metrics   *metrics.Snapshot
}

type cachedLine struct {
	Addr coherence.Addr
	Line coherence.CacheLine
}

// reliableLinkMachine fills an 8-node machine with a HAL-style reliable
// fabric, fails a link mid-fill, and runs recovery. It returns the machine,
// the node that drove detection, and whether recovery completed.
func reliableLinkMachine(seed int64) (*machine.Machine, int, bool) {
	mc := machine.DefaultConfig(8)
	mc.Seed = seed
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	mc.ReliableInterconnect = true
	m := machine.New(mc)
	f := fault.Random(m.E.Rand(), fault.LinkFailure, m.Topo, 1)
	filler := workload.NewFiller(m)
	filler.FillLines = 48
	filler.OnHalfDone = func() { m.Inject(f) }
	filler.Start(func() {})
	m.Advance(m.Now() + sim.Millisecond)
	reader := driveDetection(m, f)
	return m, reader, m.RunUntilRecovered(5 * sim.Second)
}

// reliableLinkRun runs reliableLinkMachine's scenario: the packets the
// failure destroyed sit in Network.retained across recovery and are resent
// — old payloads in fresh packets — by RetransmitLost. The outcome is the
// machine's settled state rather than a verify sweep: without the P4 flush,
// a grant orphaned by an aborted operation is never returned home, and a
// sweep reader that happens to be its recorded owner waits for it until
// the sweep gives up (TestReliableLinkSweepFailsFast).
func reliableLinkRun(seed int64) reliableOutcome {
	m, _, recovered := reliableLinkMachine(seed)
	out := reliableOutcome{Recovered: recovered}
	if !out.Recovered {
		return out
	}
	out.Retained = m.Net.RetainedLost()
	// Let the retransmission fire (a millisecond after the root resumes)
	// and the resent transactions settle.
	m.Advance(m.Now() + 20*sim.Millisecond)
	out.Dropped = m.Net.Dropped()
	out.Memory = map[coherence.Addr]uint64{}
	for _, a := range m.Oracle.WrittenLines() {
		out.Memory[a] = m.Nodes[m.Space.Home(a)].Mem.Read(a)
	}
	for _, n := range m.Nodes {
		var lines []cachedLine
		n.Cache.ForEach(func(a coherence.Addr, l *coherence.CacheLine) {
			lines = append(lines, cachedLine{a, *l})
		})
		out.Cached = append(out.Cached, lines)
	}
	out.Events = m.E.EventsFired()
	out.Metrics = m.MetricsSnapshot()
	return out
}

type poisonOutcome struct {
	Validation map[fault.Type][]*ValidationResult
	Reliable   []reliableOutcome
}

// poisonScenario is the campaign the pool-ownership test runs twice: every
// fault class through the shared-pool campaign path at eight workers, plus
// the reliable-interconnect runs.
func poisonScenario(t *testing.T) poisonOutcome {
	t.Helper()
	out := poisonOutcome{Validation: map[fault.Type][]*ValidationResult{}}
	cfg := fastValidationConfig()
	cfg.Workers = 8
	for _, ft := range append(fault.AllTypes(), fault.ExtendedTypes()...) {
		results, _ := validationBatch(cfg, ft, 8, 3)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%v run %d crashed: %v", ft, i, r.Err)
			}
			if !r.Value.OK() {
				t.Errorf("%v run %d failed: %s", ft, i, r.Value.Note)
			}
			out.Validation[ft] = append(out.Validation[ft], r.Value)
		}
	}
	retained := 0
	for seed := int64(1); seed <= 6; seed++ {
		r := reliableLinkRun(seed)
		if !r.Recovered {
			t.Errorf("reliable run seed %d did not recover", seed)
		}
		retained += r.Retained
		out.Reliable = append(out.Reliable, r)
	}
	if retained == 0 {
		t.Fatal("no reliable run retained a packet: the retransmission path went unexercised")
	}
	return out
}

// Pooled transaction records (wire records, MSHRs) are zeroed when released
// and fully rewritten when acquired, so a run cannot depend on which record
// it was handed — unless something still reads a record after its release
// point. Poisoning released records instead of zeroing them turns any such
// read into a different result: every fault class, the reliable fabric's
// retained-packet resend, and the pinned run-524 race must come out exactly
// as they do un-poisoned. Run under -race this also drives the process-wide
// pools from eight workers at once.
func TestPoisonedRecordsChangeNothing(t *testing.T) {
	clean := poisonScenario(t)
	magic.PoisonReleasedForTest(true)
	defer magic.PoisonReleasedForTest(false)
	poisoned := poisonScenario(t)
	for ft, want := range clean.Validation {
		for i := range want {
			if !reflect.DeepEqual(want[i], poisoned.Validation[ft][i]) {
				t.Errorf("%v run %d differs under poison:\nclean:    %+v\npoisoned: %+v", ft, i, want[i], poisoned.Validation[ft][i])
			}
		}
	}
	for i, want := range clean.Reliable {
		if !reflect.DeepEqual(want, poisoned.Reliable[i]) {
			t.Errorf("reliable run %d differs under poison:\nclean:    %+v\npoisoned: %+v", i, want, poisoned.Reliable[i])
		}
	}
	t.Run("tail524", TestTransientLinkTail524Contained)
}

// A sweep whose reads stop completing gives up within its stall window
// instead of driving the simulation on: on these seeds the reliable
// fabric's orphaned grants leave reads that never complete. Whether the
// sweep comes back clean is not asserted, only that it comes back fast.
func TestReliableLinkSweepFailsFast(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m, reader, recovered := reliableLinkMachine(seed)
		if !recovered {
			t.Fatalf("seed %d did not recover", seed)
		}
		start := m.Now()
		v := m.VerifyMemory(reader, 1)
		if took := m.Now() - start; took >= sim.Second {
			t.Errorf("seed %d: sweep took %v of simulated time (%v)", seed, took, v)
		}
	}
}
