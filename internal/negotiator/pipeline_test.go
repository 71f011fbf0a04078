package negotiator

import (
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/workload"
)

// TestPipelineExpandsWithLongPropagation verifies the paper's footnote 3:
// when the one-way delay exceeds an epoch, the pipeline stretches to more
// epochs but scheduling still works.
func TestPipelineExpandsWithLongPropagation(t *testing.T) {
	cfg := testConfig(t, "parallel")
	tm := DefaultTiming()
	tm.PropDelay = 12 * sim.Microsecond // >> 2.94µs epoch at 16x4
	cfg.Timing = tm
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.stageLag < 2 {
		t.Fatalf("stage lag = %d, want >= 2 for 12µs propagation", e.stageLag)
	}
	e.fab.SetWorkload(workload.NewSinglePair(0, 5, 4<<20, 0))
	e.fab.RunRounds(2 * e.stageLag)
	// Nothing scheduled may move before 2*stageLag epochs.
	piggy := e.timing.PiggybackBytes()
	if d := e.fab.Ledger.Delivered; d > int64(2*e.stageLag)*piggy {
		t.Fatalf("delivered %d before the stretched pipeline could fill", d)
	}
	e.fab.RunRounds(4)
	if d := e.fab.Ledger.Delivered; d < e.timing.EpochPortBytes() {
		t.Fatalf("stretched pipeline never delivered bulk data: %d", d)
	}
}

// TestRequestThresholdBehaviour: flows at or below the threshold ride the
// piggyback path only; the first scheduled transmission happens only for
// queues exceeding 3 piggyback payloads (§3.4.1).
func TestRequestThresholdBehaviour(t *testing.T) {
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	thr := e.threshold
	if want := 3 * e.timing.PiggybackBytes(); thr != want {
		t.Fatalf("threshold = %d, want %d", thr, want)
	}
	// Without piggybacking the threshold is zero.
	cfg2 := testConfig(t, "parallel")
	cfg2.Piggyback = false
	e2, _ := New(cfg2)
	if e2.threshold != 0 {
		t.Fatalf("threshold without PB = %d, want 0", e2.threshold)
	}
	// Custom threshold plumbs through.
	cfg3 := testConfig(t, "parallel")
	cfg3.RequestThresholdPkts = 5
	e3, _ := New(cfg3)
	if want := 5 * e3.timing.PiggybackBytes(); e3.threshold != want {
		t.Fatalf("custom threshold = %d, want %d", e3.threshold, want)
	}
}

// TestPiggybackBudgetPerPair: within one epoch, a pair moves at most one
// piggyback payload through the predefined phase.
func TestPiggybackBudgetPerPair(t *testing.T) {
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	// Queue below the request threshold so only piggybacking acts.
	size := e.timing.PiggybackBytes() * 3 // == threshold, not above
	e.fab.SetWorkload(workload.NewSinglePair(0, 5, size, 0))
	piggy := e.timing.PiggybackBytes()
	for k := 1; k <= 3; k++ {
		e.fab.RunRounds(1)
		if d := e.fab.Ledger.Delivered; d > int64(k)*piggy {
			t.Fatalf("after %d epochs delivered %d > %d (one payload per epoch)",
				k, d, int64(k)*piggy)
		}
	}
	e.fab.RunRounds(2)
	if d := e.fab.Ledger.Delivered; d != size {
		t.Fatalf("piggyback path delivered %d of %d", d, size)
	}
}

// TestPredefinedSlotTimeScalesPiggyback (Figure 12a's mechanism): longer
// predefined slots carry more unscheduled data.
func TestPredefinedSlotTimeScalesPiggyback(t *testing.T) {
	tm := DefaultTiming()
	base := tm.PiggybackBytes() // 60ns slot: 595B
	tm.PredefinedSlot = 120
	if got := tm.PiggybackBytes(); got != 1345 {
		t.Errorf("120ns slot piggyback = %d, want 1345 (110ns*12.5-30)", got)
	}
	tm.PredefinedSlot = 20
	if got := tm.PiggybackBytes(); got != 95 {
		t.Errorf("20ns slot piggyback = %d, want 95", got)
	}
	if base != 595 {
		t.Errorf("default piggyback = %d", base)
	}
}

// TestSchedulingDelayTwoEpochs measures the paper's headline scheduling
// delay: a just-above-threshold flow arriving at an epoch boundary gets its
// first scheduled transmission exactly two epochs later.
func TestSchedulingDelayTwoEpochs(t *testing.T) {
	cfg := testConfig(t, "parallel")
	cfg.PriorityQueues = false
	e, _ := New(cfg)
	size := 20 * e.timing.PiggybackBytes()
	e.fab.SetWorkload(workload.NewSinglePair(2, 9, size, 0))
	piggy := e.timing.PiggybackBytes()

	e.fab.RunRounds(1) // epoch 0: request sent; only piggyback moves
	d0 := e.fab.Ledger.Delivered
	if d0 > piggy {
		t.Fatalf("epoch 0 delivered %d > one piggyback", d0)
	}
	e.fab.RunRounds(1) // epoch 1: grant in flight; still piggyback only
	d1 := e.fab.Ledger.Delivered - d0
	if d1 > piggy {
		t.Fatalf("epoch 1 delivered %d > one piggyback", d1)
	}
	e.fab.RunRounds(1) // epoch 2: accept + scheduled transmission
	d2 := e.fab.Ledger.Delivered - d0 - d1
	if d2 <= piggy {
		t.Fatalf("epoch 2 delivered only %d; scheduled phase should carry bulk", d2)
	}
}

// TestMatchRatioSeriesLength: one observation per epoch.
func TestMatchRatioSeriesLength(t *testing.T) {
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	e.fab.SetWorkload(workload.NewPoisson(workload.Hadoop(), 16, 0.5, cfg.HostRate, 3))
	e.fab.RunRounds(37)
	if got := e.matchRatio.Len(); got != 37 {
		t.Fatalf("ratio observations = %d, want 37", got)
	}
}

// TestSelectiveRelayMovesElephantBytes: under a sustained single-pair
// elephant on thin-clos (single direct path), the relay extension must
// actually carry bytes through intermediates and still deliver everything
// exactly once.
func TestSelectiveRelayMovesElephantBytes(t *testing.T) {
	run := func(relay bool) (int64, bool) {
		cfg := testConfig(t, "thinclos")
		cfg.Relay = relay
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(4 << 20)
		e.fab.SetWorkload(workload.NewSinglePair(0, 5, size, 0))
		drained := e.fab.Drain(20000)
		return e.fab.Ledger.Delivered, drained
	}
	dBase, okBase := run(false)
	dRelay, okRelay := run(true)
	if !okBase || !okRelay {
		t.Fatal("failed to drain")
	}
	if dBase != dRelay || dBase != 4<<20 {
		t.Fatalf("delivery mismatch: base=%d relay=%d", dBase, dRelay)
	}
}

// TestSelectiveRelaySpeedsUpSinglePairElephant: with one backlogged pair
// and an otherwise idle thin-clos fabric, two-hop paths add bandwidth, so
// the elephant must finish no later than the single-path base. (The paper
// finds the gain mostly vanishes under realistic mixed load — Table 3 —
// but the mechanism itself must work.)
func TestSelectiveRelaySpeedsUpSinglePairElephant(t *testing.T) {
	finish := func(relay bool) sim.Duration {
		cfg := testConfig(t, "thinclos")
		if relay {
			cfg.Relay = true
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.fab.SetWorkload(workload.NewSinglePair(0, 5, 8<<20, 0))
		if !e.fab.Drain(40000) {
			t.Fatal("drain failed")
		}
		r := e.fab
		return r.MergedFCT().P(100)
	}
	base, relay := finish(false), finish(true)
	if relay > base {
		t.Errorf("relay slowed the elephant: %v vs base %v", relay, base)
	}
}

// TestRotationChangesControlPort: the predefined-phase port used by a pair
// must change across epochs on the parallel network (§3.6.1).
func TestRotationChangesControlPort(t *testing.T) {
	cfg := testConfig(t, "parallel")
	e, _ := New(cfg)
	_, p0 := e.top.PredefinedSlotPort(2, 9, e.rotation(0))
	seen := map[int]bool{p0: true}
	for epoch := int64(1); epoch < 4; epoch++ {
		_, p := e.top.PredefinedSlotPort(2, 9, e.rotation(epoch))
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Errorf("control port did not rotate across 4 epochs: %v", seen)
	}
}
