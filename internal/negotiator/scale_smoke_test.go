package negotiator

import (
	"testing"
	"time"

	"negotiator/internal/fabric"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

func TestPaperScaleSmoke(t *testing.T) {
	top, _ := topo.NewParallel(128, 8)
	cfg := Config{Config: fabric.Config{Topology: top, HostRate: sim.Gbps(400), PriorityQueues: true, Seed: 1}, Piggyback: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.fab.SetWorkload(workload.NewPoisson(workload.Hadoop(), 128, 1.0, sim.Gbps(400), 7))
	start := time.Now()
	e.fab.Run(2 * sim.Millisecond)
	el := time.Since(start)
	r := e.fab
	t.Logf("wall=%v epochs=%d flows=%d mice99p=%v miceavg=%v goodput=%.3f matchratio=%.3f",
		el, r.Rounds(), r.MergedFCT().Count(), r.MergedFCT().MiceP(99), r.MergedFCT().MiceMean(),
		r.MergedGoodput().Normalized(sim.Duration(r.Now()), sim.Gbps(400)), e.matchRatio.Mean())
}
