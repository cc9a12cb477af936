package experiments

import (
	"reflect"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/machine"
	"flashfc/internal/sim"
	"flashfc/internal/workload"
)

// TestTransientLinkHealChargesNothingAfterTheHeal fails a link for a
// window that heals long before recovery ends. The heal fires once, at the
// window's end; the fabric destroys nothing and the oracle charges no line
// to the fault from the heal on; recovery completes and the whole of
// memory verifies.
func TestTransientLinkHealChargesNothingAfterTheHeal(t *testing.T) {
	mc := machine.DefaultConfig(16)
	mc.Seed = 29
	mc.MemBytes = 64 << 10
	mc.L2Bytes = 16 << 10
	m := machine.New(mc)
	link := 0
	far := m.Topo.Links()[link].B

	m.Advance(200 * sim.Microsecond)
	const window = 10 * sim.Microsecond
	healAt := m.Now() + window
	f := fault.Fault{Type: fault.TransientLink, Link: link, Window: window}
	m.Inject(f)
	// Traffic into the window: this read's request or reply crosses the
	// dead link and its loss trips the memory-op timeout.
	m.Nodes[0].CPU.Submit(workload.TouchOp(m, far))
	m.Advance(healAt - 1)
	if n := m.MetricsSnapshot().Counters["interconnect.link_heals"]; n != 0 {
		t.Fatalf("link healed %d times before its window ended", n)
	}
	m.Advance(healAt)
	if n := m.MetricsSnapshot().Counters["interconnect.link_heals"]; n != 1 {
		t.Fatalf("link_heals = %d at the window's end, want 1", n)
	}
	dropped, lost := m.Net.Dropped(), m.Oracle.LostCount()
	if dropped == 0 {
		t.Fatal("the window destroyed nothing: the read never crossed the link")
	}
	if !m.RunUntilRecovered(5 * sim.Second) {
		t.Fatal("recovery incomplete")
	}
	if v := m.VerifyMemory(0, 1); !v.OK() {
		t.Fatalf("verify: %v", v)
	}
	if d := m.Net.Dropped() - dropped; d != 0 {
		t.Errorf("%d packets destroyed after the heal", d)
	}
	if l := m.Oracle.LostCount() - lost; l != 0 {
		t.Errorf("%d lines charged to the fault after the heal", l)
	}
	if n := m.MetricsSnapshot().Counters["interconnect.link_heals"]; n != 1 {
		t.Errorf("link_heals = %d, want 1", n)
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
