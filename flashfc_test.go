package flashfc_test

import (
	"testing"

	"flashfc"
)

// These tests exercise the public façade end to end, mirroring the README
// quickstart. The heavy lifting is covered by the internal test suites.

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := flashfc.DefaultMachineConfig(8)
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	m := flashfc.NewMachine(cfg)

	addr := m.Space.Base(3) + 0x400
	tok := m.Oracle.NextToken()
	m.Nodes[1].Ctrl.Write(addr, tok, func(r flashfc.Result) {
		if r.Err == nil {
			m.Oracle.Wrote(addr, tok)
		}
	})
	m.E.Run()

	m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 5}, flashfc.Millisecond)
	m.E.At(flashfc.Millisecond, func() {
		m.Nodes[0].CPU.Submit(flashfc.TouchOp(m, 5))
	})
	if !m.RunUntilRecovered(5 * flashfc.Second) {
		t.Fatal("recovery did not complete")
	}
	pt := m.Aggregate()
	if pt.Total <= 0 || pt.Participants != 7 {
		t.Fatalf("aggregate = %+v", pt)
	}
	res := m.VerifyMemory(0, 1)
	if !res.OK() {
		t.Fatalf("verify: %v", res)
	}
}

func TestPublicValidationRun(t *testing.T) {
	cfg := flashfc.DefaultValidationConfig()
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.FillLines = 48
	r := flashfc.RunValidation(cfg, flashfc.NodeFailure, 5)
	if !r.OK() {
		t.Fatalf("validation failed: %s", r.Note)
	}
}

func TestPublicHiveFlow(t *testing.T) {
	mc := flashfc.HiveMachineConfig(4, 1, 256<<10, 16<<10, 3)
	m := flashfc.NewMachine(mc)
	h := flashfc.NewHive(m, flashfc.DefaultHiveConfig(4))
	mk := flashfc.NewParallelMake(h, flashfc.DefaultMakeConfig())
	idle := false
	mk.Start(func() { idle = true })
	m.InjectAt(flashfc.Fault{Type: flashfc.NodeFailure, Node: 2}, flashfc.Millisecond)
	deadline := 20 * flashfc.Second
	for m.E.Now() < deadline && !(idle && m.Recovered() && h.OSTime > 0) {
		m.E.RunUntil(m.E.Now() + flashfc.Millisecond)
	}
	o := mk.Evaluate()
	if !o.OK() {
		t.Fatalf("outcome: %+v", o)
	}
	if o.Completed != 2 || o.Excused != 1 {
		t.Fatalf("completed=%d excused=%d", o.Completed, o.Excused)
	}
}

func TestPublicParallelCampaign(t *testing.T) {
	cfg := flashfc.DefaultValidationConfig()
	cfg.MemBytes = 64 << 10
	cfg.L2Bytes = 16 << 10
	cfg.FillLines = 48
	cfg.Workers = 4
	out := flashfc.RunCampaign(
		flashfc.CampaignConfig{Seed: 1, Runs: 6, Workers: cfg.Workers},
		flashfc.ValidationCampaign{Config: cfg, Fault: flashfc.NodeFailure})
	results, stats := out.Runs, out.Stats
	if len(results) != 6 || stats.Runs != 6 || stats.Failed != 0 {
		t.Fatalf("batch: %d results, stats %+v", len(results), stats)
	}
	for i, r := range results {
		if r.Err != nil || !r.Value.OK() {
			t.Fatalf("run %d failed: %v %s", i, r.Err, r.Value.Note)
		}
		if r.Value.Events == 0 || r.Events != r.Value.Events {
			t.Fatalf("run %d event accounting: result=%d run=%d", i, r.Value.Events, r.Events)
		}
	}
	if stats.Events == 0 || stats.EventsPerSec() <= 0 {
		t.Fatalf("stats accounting: %+v", stats)
	}

	if flashfc.DeriveSeed(1, 2, 3) != flashfc.DeriveSeed(1, 2, 3) ||
		flashfc.DeriveSeed(1, 2, 3) == flashfc.DeriveSeed(1, 2, 4) {
		t.Fatal("DeriveSeed not a distinct pure mapping")
	}
	squares := flashfc.ParallelMap(5, 2, func(i int) int { return i * i })
	for i, v := range squares {
		if v != i*i {
			t.Fatalf("ParallelMap[%d] = %d", i, v)
		}
	}
}

func TestPublicConstantsAndHelpers(t *testing.T) {
	if len(flashfc.AllFaultTypes()) != 5 {
		t.Fatal("fault types")
	}
	if flashfc.Second != 1e9*flashfc.Nanosecond {
		t.Fatal("time units")
	}
	if flashfc.ErrBusError == nil || flashfc.ErrAborted == nil {
		t.Fatal("errors unexported")
	}
	off, on := flashfc.FirewallLatency(false, 1), flashfc.FirewallLatency(true, 1)
	if frac := float64(on-off) / float64(off); frac <= 0 || frac >= 0.07 {
		t.Fatalf("firewall overhead fraction = %v", frac)
	}
}
