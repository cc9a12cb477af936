package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"flashfc/internal/coherence"
	"flashfc/internal/core"
	"flashfc/internal/fault"
	"flashfc/internal/interconnect"
	"flashfc/internal/machine"
)

// judgedFork runs ValidationFromWarm's script on a fork of ws with the
// sweep off: recovery complete and judged, nothing swept yet. It returns
// the machine and the sweep's reader, the lowest-id survivor.
func judgedFork(t *testing.T, ws *WarmState, ft fault.Type, runSeed int64) (*machine.Machine, int) {
	t.Helper()
	s := validationScript(ws, ft, runSeed, nil)
	s.Stride = 0
	if rec := s.Run(); !rec.Recovered {
		t.Fatalf("%v seed %d: recovery incomplete", rec.Fault, runSeed)
	}
	return s.M, s.M.Survivors()[0]
}

// incoherentLines lists the lines marked incoherent at homes that serve,
// ascending.
func incoherentLines(m *machine.Machine) []coherence.Addr {
	var out []coherence.Addr
	live := m.Liveness()
	for _, h := range m.Nodes {
		if !live.HomeServes(h.ID) {
			continue
		}
		h.Dir.ForEach(func(a coherence.Addr, e *coherence.DirEntry) {
			if e.State == coherence.DirIncoherent {
				out = append(out, a)
			}
		})
	}
	slices.Sort(out)
	return out
}

// flagged returns the addresses of the judge's lines that contain what.
func flagged(j machine.Judgement, what string) []coherence.Addr {
	var out []coherence.Addr
	for _, v := range j {
		if strings.Contains(v, what) {
			a, _ := strconv.ParseUint(v[:strings.IndexByte(v, ':')], 0, 64)
			out = append(out, coherence.Addr(a))
		}
	}
	return out
}

// On Table 5.3 runs the judge and the full sweep agree line for line: the
// judge passes exactly when the sweep does, and the lines the judge sees
// marked incoherent at serving homes are the lines the sweep reads back as
// bus errors from them, justified or not.
func TestJudgeAgreesWithSweep(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	for _, ft := range fault.AllTypes() {
		for seed := int64(1); seed <= 2; seed++ {
			m, reader := judgedFork(t, ws, ft, seed)
			j := m.Judge()
			marked := incoherentLines(m)
			v := m.VerifyMemory(reader, 1)
			if j.OK() != v.OK() || !j.OK() {
				t.Fatalf("%v seed %d: judge %v, sweep %v", ft, seed, j, v)
			}
			if len(marked) != v.Incoherent+len(v.OverMarked) {
				t.Fatalf("%v seed %d: %d lines marked incoherent, the sweep read %d back as bus errors",
					ft, seed, len(marked), v.Incoherent+len(v.OverMarked))
			}
		}
	}
}

// A P4 sweep that skips marking a line the failed node held dirty leaves it
// exclusive to the dead owner, with stale data at home: the judge names
// that line, and only it, without sweeping anything.
func TestJudgeCatchesSkippedMark(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	for seed := int64(1); seed <= 4; seed++ {
		m, _ := judgedFork(t, ws, fault.NodeFailure, seed)
		if j := m.Judge(); !j.OK() {
			t.Fatalf("seed %d: judge before the mutation: %v", seed, j)
		}
		var skipped coherence.Addr
		found := false
		for _, a := range incoherentLines(m) {
			home := m.Nodes[m.Space.Home(a)]
			if home.Mem.Read(a) != m.Oracle.ExpectedToken(a) {
				skipped, found = a, true
				break
			}
		}
		if !found {
			continue // no dirty line was lost on this seed
		}
		e := m.Nodes[m.Space.Home(skipped)].Dir.Get(skipped)
		e.State = coherence.DirExclusive
		j := m.Judge()
		if got := flagged(j, "not marked incoherent"); len(j) != 1 || !slices.Equal(got, []coherence.Addr{skipped}) {
			t.Fatalf("seed %d: skipping the mark of %v: judge %q", seed, skipped, j)
		}
		return
	}
	t.Fatal("no seed lost a dirty line: the mutation went unexercised")
}

// A writeback dropped during the P4 flush without the loss being reported
// leaves its line marked incoherent at home with nothing to justify the
// mark: the oracle never saw the line lost. With the sweep off, the judge
// alone must name that line, and only it, and the run's record must fail on
// the judge's note.
func TestJudgeCatchesSilentlyDroppedWriteback(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	for seed := int64(1); seed <= 4; seed++ {
		s := validationScript(ws, fault.LinkFailure, seed, nil)
		s.Stride = 0
		var swallowed []coherence.Addr
		for _, n := range s.M.Nodes {
			ctrl, agent := n.Ctrl, n.Agent
			s.M.Net.SetEndpoint(n.ID, interconnect.EndpointFunc(func(p *interconnect.Packet) bool {
				if msg, ok := p.Payload.(*coherence.Message); ok && len(swallowed) == 0 &&
					msg.Type == coherence.MsgPut && agent.Phase() == core.PhaseCoherence {
					swallowed = append(swallowed, msg.Addr)
					return true
				}
				return ctrl.Accept(p)
			}))
		}
		rec := s.Run()
		if !rec.Recovered {
			t.Fatalf("seed %d: recovery incomplete", seed)
		}
		if len(swallowed) == 0 {
			t.Fatalf("seed %d: no writeback arrived during the flush: the mutation went unexercised", seed)
		}
		if got := flagged(rec.Judge, "without a justifying loss"); len(rec.Judge) != 1 || !slices.Equal(got, swallowed) {
			t.Fatalf("seed %d: swallowing the writeback of %v: judge %q", seed, swallowed[0], rec.Judge)
		}
		if !strings.Contains(rec.Note, "judge: ") {
			t.Fatalf("seed %d: the record's note %q does not name the judge", seed, rec.Note)
		}
	}
}

// A P4 sweep that marks every line over-marks: the judge names every line
// marked without a justifying loss, and the sweep reads back exactly those
// lines as over-marked bus errors. Lines a cache holds again after recovery
// are not the sweep's to mark and are left alone.
func TestJudgeCatchesMarkingEveryLine(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	m, reader := judgedFork(t, ws, fault.NodeFailure, 1)
	live := m.Liveness()
	cached := func(a coherence.Addr) bool {
		for _, n := range m.Nodes {
			if live.Live(n.ID) && n.Cache.Lookup(a) != nil {
				return true
			}
		}
		return false
	}
	marked := 0
	for _, h := range m.Nodes {
		if !live.HomeServes(h.ID) {
			continue
		}
		for i := 0; i < int(m.Cfg.MemBytes/128); i++ {
			a := m.Space.Base(h.ID) + coherence.Addr(128*i)
			if e := h.Dir.Peek(a); cached(a) || e != nil && (e.State == coherence.DirIncoherent || e.State.Locked()) {
				continue
			}
			e := h.Dir.Get(a)
			e.State = coherence.DirIncoherent
			e.Sharers.Clear()
			marked++
		}
	}
	j := m.Judge()
	over := flagged(j, "without a justifying loss")
	if len(over) == 0 || len(over) != len(j) {
		t.Fatalf("marking %d lines: judge %v", marked, j)
	}
	v := m.VerifyMemory(reader, 1)
	swept := slices.Clone(v.OverMarked)
	slices.Sort(swept)
	if !slices.Equal(over, swept) {
		t.Fatalf("the judge names %d over-marked lines, the sweep %d", len(over), len(swept))
	}
}

// Every point figures -fig 5.5 draws, mesh and hypercube, recovers and
// passes the judge.
func TestFig55PassesJudge(t *testing.T) {
	for _, topo := range []machine.TopoKind{machine.TopoMesh, machine.TopoHypercube} {
		for _, p := range RunCampaign(CampaignConfig{Seed: 1}, Fig55Campaign{Nodes: []int{2, 8, 16, 32, 64, 128}, Topo: topo}).Values() {
			if !p.OK || !p.Judge.OK() {
				t.Errorf("%v at %d nodes: OK=%v %v", topo, p.Nodes, p.OK, p.Judge)
			}
		}
	}
}

// A passing judgement allocates nothing per line: it ranges over the
// oracle's lines in place and builds no list unless something fails.
func TestJudgeAllocatesNothingPerLine(t *testing.T) {
	ws := WarmupValidation(DefaultValidationConfig(), 1)
	m, _ := judgedFork(t, ws, fault.NodeFailure, 1)
	lines := len(m.Oracle.WrittenLines())
	allocs := testing.AllocsPerRun(10, func() {
		if j := m.Judge(); !j.OK() {
			t.Fatal(j)
		}
	})
	t.Logf("%.0f allocations judging %d written lines on %d nodes", allocs, lines, len(m.Nodes))
	if allocs > float64(4*len(m.Nodes)) {
		t.Fatalf("judging %d written lines allocates %.0f times, want at most a few per node", lines, allocs)
	}
}
