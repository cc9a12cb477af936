package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flashfc/internal/interconnect"
	"flashfc/internal/machine"
	"flashfc/internal/obs"
)

// With recovery lanes dropping every head that waits past the head-drop
// timeout, slow or stuck, the 1 024-node hypercube's round-1 state messages
// between the victim's neighbours are dropped in every epoch, and the
// epochs repeat until the deadline. The livelock watch stops the run once
// two consecutive epochs met the same drops and stalls: its record's
// outcome is livelock, within a few epochs, and its note names the
// victim's neighbours.
func TestHypercube1024LivelockStopsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("the 1 024-node hypercube takes seconds")
	}
	interconnect.DropSlowRecoveryHeadsForTest(true)
	defer interconnect.DropSlowRecoveryHeadsForTest(false)
	cfg := DefaultScalingConfig(1024)
	cfg.Topo = machine.TopoHypercube
	s := scalingScript(cfg)
	start := time.Now()
	p := scalingPoint(s)
	rec := obs.RunRecord{Outcome: obs.OutcomePass}
	p.FillRecord(&rec)
	epoch := 0
	for _, n := range s.M.Nodes {
		epoch = max(epoch, n.Agent.Epoch())
	}
	t.Logf("outcome %s at epoch %d, %v simulated, %v host: %s", rec.Outcome, epoch, s.M.Now(), time.Since(start), rec.Note)
	if rec.Outcome != obs.OutcomeLivelock {
		t.Fatalf("outcome %q, want %q", rec.Outcome, obs.OutcomeLivelock)
	}
	if epoch > 6 {
		t.Fatalf("livelock caught at epoch %d, want within a few", epoch)
	}
	victim := cfg.Nodes / 2
	for bit := 1; bit < cfg.Nodes; bit <<= 1 {
		if nb := victim ^ bit; strings.Contains(rec.Note, fmt.Sprintf("%d→", nb)) || strings.Contains(rec.Note, fmt.Sprintf("node %d ", nb)) {
			return
		}
	}
	t.Fatalf("note names none of victim %d's neighbours: %s", victim, rec.Note)
}
