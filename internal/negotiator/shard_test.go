package negotiator

import (
	"fmt"
	"negotiator/internal/fabric"
	"testing"

	"negotiator/internal/failure"
	"negotiator/internal/match"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	"negotiator/internal/workload"
)

// shardFingerprint runs an engine for a fixed number of epochs and renders
// everything observable about the run — summary metrics, CDF, per-epoch
// match-ratio series, ledger — into one comparable string.
func shardFingerprint(t *testing.T, cfg Config, epochs int) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.fab.SetWorkload(workload.NewPoisson(workload.Hadoop(), cfg.Topology.N(), 0.8, sim.Gbps(200), 33))
	e.fab.RunRounds(epochs)
	r := e.fab
	return fmt.Sprintf("fct=%v flows=%d mice=%d p99=%v mp99=%v mean=%v goodput=%d per=%v ratio=%.6f series=%v inj=%d del=%d lost=%d tags=%v cdf=%v",
		r.MergedFCT(), r.MergedFCT().Count(), r.MergedFCT().MiceCount(), r.MergedFCT().P(99), r.MergedFCT().MiceP(99), r.MergedFCT().Mean(),
		r.MergedGoodput().TotalBytes(), r.MergedGoodput().PerToRGbps(sim.Duration(r.Now())), e.matchRatio.Mean(), e.matchRatio.Series(),
		r.Ledger.Injected, r.Ledger.Delivered, r.Lost, r.Tags, r.MergedFCT().MiceCDF(16))
}

// TestShardDeterminismEngine: the engine must produce identical results at
// every worker count, for both topologies, every sharded matcher, the
// batch matchers, and under failure injection.
func TestShardDeterminismEngine(t *testing.T) {
	const n, s, w = 16, 4, 4
	newParallel := func() topo.Topology { p, _ := topo.NewParallel(n, s); return p }
	newThinClos := func() topo.Topology { tc, _ := topo.NewThinClos(n, s, w); return tc }

	matchers := map[string]func(topo.Topology, *sim.RNG) match.Matcher{
		"base":      nil,
		"data-size": func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewDataSize(tp, r) },
		"hol-delay": func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewHoLDelay(tp, r) },
		"stateful":  func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewStateful(tp, r, 20000) },
		"projector": func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewProjecToR(tp, r) },
		"iter3":     func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewIterative(tp, r, 3) },
		"islip":     func(tp topo.Topology, r *sim.RNG) match.Matcher { return match.NewClassic(tp, r, 3, match.ISLIP) },
	}
	for _, topoKind := range []string{"parallel", "thinclos"} {
		for name, mk := range matchers {
			t.Run(topoKind+"/"+name, func(t *testing.T) {
				build := func(workers int) Config {
					var tp topo.Topology
					if topoKind == "parallel" {
						tp = newParallel()
					} else {
						tp = newThinClos()
					}
					cfg := Config{
						Config: fabric.Config{
							Topology:        tp,
							HostRate:        sim.Gbps(200),
							PriorityQueues:  true,
							Seed:            1,
							CheckInvariants: true,
							Workers:         workers,
						},
						Piggyback: true,
					}
					if mk != nil {
						m := mk
						cfg.NewMatcher = func(tp topo.Topology, tm Timing, r *sim.RNG) match.Matcher { return m(tp, r) }
					}
					return cfg
				}
				epochs, counts := 400, []int{2, 3, 4, 8, 16}
				if testing.Short() {
					epochs, counts = 150, []int{2, 4, 16}
				}
				want := shardFingerprint(t, build(1), epochs)
				for _, workers := range counts {
					if got := shardFingerprint(t, build(workers), epochs); got != want {
						t.Fatalf("workers=%d diverges from sequential\n got: %.300s\nwant: %.300s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestShardDeterminismUnderFailures: failure injection (loss, detection,
// requeue) must also be worker-count-independent.
func TestShardDeterminismUnderFailures(t *testing.T) {
	build := func(workers int) Config {
		tp, _ := topo.NewParallel(16, 4)
		ep := DefaultTiming().EpochLen(16)
		return Config{
			Config: fabric.Config{
				Topology:        tp,
				HostRate:        sim.Gbps(200),
				PriorityQueues:  true,
				Seed:            1,
				CheckInvariants: true,
				Workers:         workers,
				Failures:        failure.Random(16, 4, 0.2, sim.Time(20*ep), sim.Time(150*ep), 3*ep, 9),
			},
			Piggyback: true,
		}
	}
	epochs := 300
	if testing.Short() {
		epochs = 150
	}
	want := shardFingerprint(t, build(1), epochs)
	for _, workers := range []int{2, 4, 8} {
		if got := shardFingerprint(t, build(workers), epochs); got != want {
			t.Fatalf("workers=%d diverges under failures\n got: %.300s\nwant: %.300s", workers, got, want)
		}
	}
}

// TestWorkersClampedForSequentialFeatures: features that need globally
// ordered mutation must force sequential execution.
func TestWorkersClampedForSequentialFeatures(t *testing.T) {
	tc, _ := topo.NewThinClos(16, 4, 4)
	base := Config{Config: fabric.Config{Topology: tc, Workers: 4}}

	cfg := base
	cfg.Relay = true
	if e, _ := New(cfg); e.fab.Workers != 1 {
		t.Errorf("relay: workers = %d, want 1", e.fab.Workers)
	}
	cfg = base
	cfg.TrackReceiverBuffers = true
	if e, _ := New(cfg); e.fab.Workers != 1 {
		t.Errorf("rx buffers: workers = %d, want 1", e.fab.Workers)
	}
	cfg = base
	cfg.OnDeliver = func(int, sim.Time, int64) {}
	if e, _ := New(cfg); e.fab.Workers != 1 {
		t.Errorf("OnDeliver: workers = %d, want 1", e.fab.Workers)
	}
	cfg = base
	if e, _ := New(cfg); e.fab.Workers != 4 {
		t.Errorf("plain: workers = %d, want 4", e.fab.Workers)
	}
	cfg = base
	cfg.Workers = 1000 // capped at ToR count
	if e, _ := New(cfg); e.fab.Workers != 16 {
		t.Errorf("cap: workers = %d, want 16", e.fab.Workers)
	}
}
