package machine

import (
	"fmt"
	"strings"
	"testing"

	"flashfc/internal/fault"
	"flashfc/internal/magic"
	"flashfc/internal/sim"
	"flashfc/internal/trace"
)

// Inject, InjectAt and InjectAll are one injection path: each fault they
// apply is a timeline point at its injection time and a count in
// machine.faults_injected.
func TestEveryInjectionPathRecordsAndCounts(t *testing.T) {
	const at = sim.Millisecond
	for _, tc := range []struct {
		name   string
		faults []fault.Fault
		inject func(m *Machine, fs []fault.Fault)
	}{
		{"Inject", []fault.Fault{{Type: fault.NodeFailure, Node: 5}},
			func(m *Machine, fs []fault.Fault) { m.E.At(at, func() { m.Inject(fs[0]) }) }},
		{"InjectAt", []fault.Fault{{Type: fault.NodeFailure, Node: 5}},
			func(m *Machine, fs []fault.Fault) { m.InjectAt(fs[0], at) }},
		{"InjectAll", []fault.Fault{{Type: fault.NodeFailure, Node: 5}, {Type: fault.NodeFailure, Node: 6}},
			func(m *Machine, fs []fault.Fault) { m.E.At(at, func() { m.InjectAll(fs) }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(3)
			cfg.Trace = trace.New()
			m := New(cfg)
			tc.inject(m, tc.faults)
			m.E.RunUntil(2 * at)
			if got := m.MetricsSnapshot().Counters["machine.faults_injected"]; got != uint64(len(tc.faults)) {
				t.Errorf("machine.faults_injected = %d, want %d", got, len(tc.faults))
			}
			var faults []trace.Point
			for _, p := range cfg.Trace.Timeline() {
				if p.Cat == trace.KindFault {
					faults = append(faults, p)
				}
			}
			if len(faults) != len(tc.faults) {
				t.Fatalf("%d fault points, want %d: %v", len(faults), len(tc.faults), faults)
			}
			for i, p := range faults {
				if want := fmt.Sprint(tc.faults[i]); p.Name != want || p.T != at || p.Node != -1 {
					t.Errorf("fault point %d = %+v, want %q by the machine at %v", i, p, want, at)
				}
			}
		})
	}
}

// Packet points cover the containment window: they stop when a recovery
// completes — the traffic after it is not traced — and a second fault
// records packets again from its injection on.
func TestPacketPointsStopAtRecoveryAndResumeAtNextFault(t *testing.T) {
	cfg := smallConfig(11)
	tr := trace.New()
	cfg.Trace = tr
	m := New(cfg)
	m.Inject(fault.Fault{Type: fault.NodeFailure, Node: 5})
	m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(5))+0x100))
	if !m.RunUntilRecovered(recoveryDeadline) {
		t.Fatal("first recovery did not complete")
	}
	if res := m.VerifyMemory(0, 8); !res.OK() {
		t.Fatalf("verification failed: %v", res)
	}
	second := m.E.Now() + sim.Millisecond
	m.InjectAt(fault.Fault{Type: fault.NodeFailure, Node: 7}, second)
	m.E.At(second, func() { m.Nodes[1].CPU.Submit(readOp(m, uint64(m.Space.Base(7))+0x100)) })
	m.E.RunUntil(second)
	if m.Recovered() || !m.RunUntilRecovered(m.E.Now()+recoveryDeadline) {
		t.Fatal("second recovery did not complete")
	}

	var ends []sim.Time
	for _, sp := range tr.Spans() {
		if sp.Parent == 0 && sp.Name == "recovery" {
			ends = append(ends, sp.End)
		}
	}
	if len(ends) != 2 {
		t.Fatalf("recovery root spans end at %v, want two", ends)
	}
	recovered := ends[0]
	var before, after int
	for _, p := range tr.Points() {
		if p.Cat != "pkt" {
			continue
		}
		switch {
		case p.T <= recovered:
			before++
		case p.T >= second:
			after++
		default:
			t.Fatalf("packet point %+v between recovery at %v and the next fault at %v", p, recovered, second)
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("%d packet points up to the first recovery, %d from the second fault: want both > 0", before, after)
	}
}

// A partitioned machine runs only a region-safe, fault-free workload: a
// fault, a snapshot, recovery entry and a build without ParallelWindows
// each panic, naming the rule.
func TestPartitionedMachineRefusesFaults(t *testing.T) {
	partitioned := func() *Machine {
		cfg := DefaultConfig(16)
		cfg.MemBytes = 64 << 10
		cfg.L2Bytes = 16 << 10
		cfg.Partitions = 2
		cfg.ParallelWindows = true
		return New(cfg)
	}
	f := fault.Fault{Type: fault.NodeFailure, Node: 5}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Inject", func() { partitioned().Inject(f) }},
		{"InjectAt", func() { partitioned().InjectAt(f, sim.Millisecond) }},
		{"Snapshot", func() { partitioned().Snapshot() }},
		{"recovery entry", func() { partitioned().Nodes[0].Agent.Trigger(magic.ReasonFalseAlarm) }},
		{"ParallelWindows=false", func() {
			cfg := DefaultConfig(16)
			cfg.Partitions = 2
			New(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, partitionRule) {
					t.Fatalf("panic %q does not name the rule %q", msg, partitionRule)
				}
			}()
			tc.call()
		})
	}
}
