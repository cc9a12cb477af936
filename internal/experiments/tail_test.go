package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// TestTransientLinkHealOnLookaheadBarrier pins the nastiest transient-link
// timing: the heal window ends exactly on a conservative-lookahead window
// boundary of the partitioned engine. The heal event must fire at the right
// global time, nothing crossing the healed link afterwards may be charged
// to the fault, and the whole run stays byte-identical across worker
// counts.
func TestTransientLinkHealOnLookaheadBarrier(t *testing.T) {
	run := func(workers int) (string, *ValidationResult) {
		mc := machine.DefaultConfig(16)
		mc.Seed = 29
		mc.MemBytes = 64 << 10
		mc.L2Bytes = 16 << 10
		mc.Partitions = workers
		m := machine.New(mc)
		la := m.P.Lookahead()

		// Pick an inter-region link so the degradation also spans a
		// partition boundary.
		link := -1
		var far int
		for l, lk := range m.Topo.Links() {
			if m.Regions.Of(lk.A) != m.Regions.Of(lk.B) {
				link, far = l, lk.B
				break
			}
		}
		if link < 0 {
			t.Fatal("test premise broken: no inter-region link")
		}

		// Advance into the run, then size the window so the heal lands on
		// an exact multiple of the lookahead — the barrier instant itself.
		m.Advance(200 * sim.Microsecond)
		window := 4*la - m.Now()%la
		f := fault.Fault{Type: fault.TransientLink, Link: link, Window: window}
		if (m.Now()+window)%la != 0 {
			t.Fatalf("window %v does not end on a lookahead barrier", window)
		}
		m.Inject(f)
		// Traffic into the window: this read's request or reply crosses
		// the dead link and its loss trips the memory-op timeout.
		m.Nodes[0].CPU.Submit(workload.TouchOp(m, far))
		res := &ValidationResult{Fault: f}
		res.Recovered = m.RunUntilRecovered(5 * sim.Second)
		if res.Recovered {
			res.Verify = m.VerifyMemory(0, 1)
		}
		res.Metrics = m.MetricsSnapshot()
		var buf bytes.Buffer
		if err := res.Metrics.WriteJSON(&buf); err != nil {
			t.Fatalf("metrics json: %v", err)
		}
		return buf.String(), res
	}
	want, res := run(1)
	if !res.Recovered || res.Verify == nil || !res.Verify.OK() {
		t.Fatalf("workers=1: recovered=%v verify=%v", res.Recovered, res.Verify)
	}
	if n := res.Metrics.Counters["interconnect.link_heals"]; n != 1 {
		t.Errorf("link_heals = %d, want 1", n)
	}
	got, res4 := run(4)
	if !res4.Recovered || res4.Verify == nil || !res4.Verify.OK() {
		t.Fatalf("workers=4: recovered=%v verify=%v", res4.Recovered, res4.Verify)
	}
	if got != want {
		t.Errorf("metrics JSON differs between 1 and 4 workers")
	}
}

// TestTailCampaignCrossForkDeterminism is the fork contract applied to the
// tail campaign: at 1 worker every run forks one warm snapshot, at 8 runs
// fork eight workers' copies of it, and the scenarios must be identical —
// same percentiles, same failure counts, same affected fractions.
func TestTailCampaignCrossForkDeterminism(t *testing.T) {
	cfg := DefaultTailConfig()
	cfg.FillLines = 64
	cfg.Runs = 6
	cfg.Workers = 1
	one := TailCampaign(cfg, 17)
	cfg.Workers = 8
	eight := TailCampaign(cfg, 17)
	if !reflect.DeepEqual(one.Scenarios, eight.Scenarios) {
		t.Fatalf("tail scenarios differ between 1 and 8 workers:\n1: %+v\n8: %+v",
			one.Scenarios, eight.Scenarios)
	}
	for _, sc := range one.Scenarios {
		if sc.Failed != 0 {
			t.Errorf("%v: %d/%d runs failed", sc.Fault, sc.Failed, sc.Runs)
		}
		if sc.P50 > sc.P99 || sc.P99 > sc.P999 {
			t.Errorf("%v: percentiles not monotonic: p50=%v p99=%v p999=%v",
				sc.Fault, sc.P50, sc.P99, sc.P999)
		}
		if sc.TailOK {
			t.Errorf("%v: p999 of %d runs claims tail support", sc.Fault, sc.Runs)
		}
	}
}
