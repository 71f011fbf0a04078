package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	negotiator "negotiator"
	"negotiator/internal/failure"
	"negotiator/internal/flows"
	"negotiator/internal/match"
	ineg "negotiator/internal/negotiator"
	"negotiator/internal/queue"
	"negotiator/internal/sim"
	"negotiator/internal/topo"
	wl "negotiator/internal/workload"
)

// layerSample is one traced repetition. The fabric part records spans
// around the benchmark's calls into the facade, stepping one round at a
// time; the other layers are timed on twins driven by the same instance
// (see twin).
type layerSample struct {
	buildMS, warmupMS, runS float64
	roundsUS                []float64
	snapMS, snapMB          float64
	readoutMS               float64
	sum                     negotiator.Summary
	twin                    twinSample
}

// traced alternates an untraced and a traced repetition of each instance
// until the budget is spent, and reports the per-layer metrics. Both
// repetitions must reproduce the instance's fingerprint.
func (b *bench) traced() result {
	var plain []float64
	var reps []layerSample
	start := time.Now()
	for k := 0; k < 1 || b.fits(start, k); k++ {
		seed := instanceSeed(b.seed, k%instancesPerSeed)
		s, err := b.measure(seed)
		if err != nil {
			continue
		}
		l, err := b.measureTraced(seed)
		if err != nil {
			continue
		}
		plain = append(plain, s.run)
		reps = append(reps, l)
	}
	pick := func(f func(l layerSample) float64) float64 { return medianOf(reps, f) }
	var rounds []float64
	for _, l := range reps {
		rounds = append(rounds, l.roundsUS...)
	}
	sort.Float64s(rounds)
	tailPct, tail, beyond := tailPercentile(rounds)
	fmt.Fprintf(b.log, "%s round time over %d rounds: p50 %.2f µs, p%g %.2f µs (%d rounds beyond)\n",
		b.w.name, len(rounds), quantile(rounds, 50), tailPct, tail, beyond)
	var overhead float64
	if plainRun := median(plain); plainRun > 0 {
		overhead = 100 * (pick(func(l layerSample) float64 { return l.runS })/plainRun - 1)
	}
	return b.result(map[string]metric{
		"fabric.build_ms":          {pick(func(l layerSample) float64 { return l.buildMS }), "ms"},
		"fabric.warmup_ms":         {pick(func(l layerSample) float64 { return l.warmupMS }), "ms"},
		"fabric.round_us.p50":      {quantile(rounds, 50), "us"},
		"fabric.round_us.tail":     {tail, "us"},
		"fabric.round_us.tail_pct": {tailPct, "%"},
		"fabric.rounds":            {float64(len(rounds)), "count"},
		"fabric.delivered_gb":      {pick(func(l layerSample) float64 { return float64(l.sum.Delivered) / 1e9 }), "GB"},
		"snap.snapshot_ms":         {pick(func(l layerSample) float64 { return l.snapMS }), "ms"},
		"snap.bytes_mb":            {pick(func(l layerSample) float64 { return l.snapMB }), "MB"},
		"metrics.readout_ms":       {pick(func(l layerSample) float64 { return l.readoutMS }), "ms"},
		"metrics.flows_done":       {pick(func(l layerSample) float64 { return float64(l.sum.Flows) }), "count"},
		"workload.next_ns":         {pick(func(l layerSample) float64 { return l.twin.nextNS }), "ns"},
		"workload.arrivals":        {pick(func(l layerSample) float64 { return float64(l.twin.arrivals) }), "count"},
		"queue.push_ns":            {pick(func(l layerSample) float64 { return l.twin.pushNS }), "ns"},
		"queue.take_ns":            {pick(func(l layerSample) float64 { return l.twin.takeNS }), "ns"},
		"queue.pages":              {pick(func(l layerSample) float64 { return float64(l.twin.pages) }), "count"},
		"match.requests_ns":        {pick(func(l layerSample) float64 { return l.twin.requestsNS }), "ns"},
		"match.grants_ns":          {pick(func(l layerSample) float64 { return l.twin.grantsNS }), "ns"},
		"match.accepts_ns":         {pick(func(l layerSample) float64 { return l.twin.acceptsNS }), "ns"},
		"match.accept_ratio":       {pick(func(l layerSample) float64 { return l.twin.acceptRatio }), "ratio"},
		"match.fabric_ratio":       {pick(func(l layerSample) float64 { return l.sum.MatchRatio }), "ratio"},
		"failure.advance_ns":       {pick(func(l layerSample) float64 { return l.twin.advanceNS }), "ns"},
		"failure.transitions":      {pick(func(l layerSample) float64 { return float64(l.twin.transitions) }), "count"},
		"failure.lost_mb":          {pick(func(l layerSample) float64 { return float64(l.sum.LostBytes) / 1e6 }), "MB"},
		"trace.overhead_pct":       {overhead, "%"},
	})
}

// measureTraced runs one traced repetition: the same set-up and span as
// measure, split into spans per layer call and stepped one round at a
// time, then the layer twins.
func (b *bench) measureTraced(seed int64) (layerSample, error) {
	b.attempts++
	spec := b.w.instance(seed)
	var l layerSample
	runtime.GC()
	t0 := time.Now()
	fab, err := spec.Build()
	l.buildMS = ms(time.Since(t0))
	if err != nil {
		return l, b.fail(seed, err)
	}
	gen, err := b.w.gen(spec)
	if err != nil {
		return l, b.fail(seed, err)
	}
	fab.SetWorkload(gen)
	t0 = time.Now()
	fab.RunEpochs(b.w.warmup)
	l.warmupMS = ms(time.Since(t0))
	runtime.GC()

	var buf bytes.Buffer
	var snaps []float64
	snapshot := func() error {
		t := time.Now()
		buf.Reset()
		if err := fab.Snapshot(&buf); err != nil {
			return err
		}
		snaps = append(snaps, ms(time.Since(t)))
		l.snapMB = float64(buf.Len()) / 1e6
		return nil
	}
	l.roundsUS = make([]float64, 0, b.w.span)
	start := time.Now()
	for r := 1; r <= b.w.span; r++ {
		t := time.Now()
		fab.RunEpochs(1)
		l.roundsUS = append(l.roundsUS, float64(time.Since(t).Nanoseconds())/1e3)
		if b.w.snapEvery > 0 && r%b.w.snapEvery == 0 {
			if err := snapshot(); err != nil {
				return l, b.fail(seed, fmt.Errorf("snapshot after %d rounds: %w", r, err))
			}
		}
	}
	t0 = time.Now()
	l.sum = fab.Summary()
	cdf := fmt.Sprint(fab.MiceCDF(24))
	l.readoutMS = ms(time.Since(t0))
	l.runS = time.Since(start).Seconds()
	if b.w.snapEvery == 0 {
		// No rolling checkpoints in this workload's span: time one
		// checkpoint of the loaded fabric after it, outside run_s.
		if err := snapshot(); err != nil {
			return l, b.fail(seed, fmt.Errorf("snapshot: %w", err))
		}
	}
	l.snapMS = median(snaps)
	fab = nil // the twin runs without the fabric's memory
	if err := b.check(seed, l.sum, fingerprint(l.sum, cdf)); err != nil {
		return l, err
	}
	runtime.GC()
	if l.twin, err = runTwin(b.w, spec, l.sum.EpochLen); err != nil {
		return l, b.fail(seed, err)
	}
	fmt.Fprintf(b.log, "%s seed=%d traced run=%.4fs build=%.2fms warmup=%.2fms readout=%.2fms snapshot=%.2fms (%.2f MB) %+v\n",
		b.w.name, seed, l.runS, l.buildMS, l.warmupMS, l.readoutMS, l.snapMS, l.snapMB, l.twin)
	return l, nil
}

// twinSample holds the per-call costs of the layers the facade hides,
// each timed in the benchmark around calls into that layer's own API.
type twinSample struct {
	nextNS      float64 // workload: Generator.Next
	arrivals    int
	advanceNS   float64 // failure: Cursor.AdvanceTo per round boundary
	transitions int
	pushNS      float64 // queue: DestQueue push into a paged slab
	takeNS      float64 // queue: DestQueue.Take of one matched port's epoch
	pages       int
	requestsNS  float64 // match: Requests per source with demand
	grantsNS    float64 // match: Grants per requested destination
	acceptsNS   float64 // match: Accepts per granted source
	acceptRatio float64
}

// runTwin drives the workload, failure, queue and match layers through
// the instance's span on their own: a twin generator (same constructor and
// seed) yields the arrivals of every simulated round, the failure plan's
// cursor advances at each round boundary, the arrivals are queued in
// per-source PIAS slabs, and a base NegotiaToR matcher on the workload's
// topology matches the queues' binary demand each round, every match
// draining one port-epoch of bytes.
func runTwin(w workload, spec negotiator.Spec, epochLen sim.Duration) (twinSample, error) {
	var t twinSample
	rounds := w.warmup + w.span
	end := sim.Time(int64(rounds) * int64(epochLen))

	gen, err := w.gen(spec)
	if err != nil {
		return t, err
	}
	var arrivals []wl.Arrival
	calls := 0
	t0 := time.Now()
	for {
		a, ok := gen.Next()
		calls++
		if !ok || a.Time >= end {
			break
		}
		arrivals = append(arrivals, a)
	}
	t.nextNS = perCall(time.Since(t0), calls)
	t.arrivals = len(arrivals)

	cur := failure.NewCursor(failurePlan(spec), spec.ToRs, spec.Ports)
	pending := cur.Pending()
	t0 = time.Now()
	for r := 0; r <= rounds; r++ {
		cur.AdvanceTo(sim.Time(int64(r) * int64(epochLen)))
	}
	t.advanceNS = perCall(time.Since(t0), rounds+1)
	t.transitions = pending - cur.Pending()

	var top topo.Topology
	if spec.Topology == negotiator.ThinClos {
		top, err = topo.NewThinClos(spec.ToRs, spec.Ports, spec.AWGRPorts)
	} else {
		top, err = topo.NewParallel(spec.ToRs, spec.Ports)
	}
	if err != nil {
		return t, err
	}
	q := newTwinQueues(spec.ToRs, spec.Ports)
	m := match.NewNegotiator(top, sim.NewRNG(spec.Seed))
	fl := make([]flows.Flow, len(arrivals))
	for i, a := range arrivals {
		fl[i] = flows.Flow{ID: int64(i), Src: a.Src, Dst: a.Dst, Size: a.Size, Arrival: a.Time, Tag: a.Tag, Count: a.Count}
	}
	portBytes := ineg.DefaultTiming().EpochPortBytes()
	var pushD, takeD, reqD, grantD, acceptD time.Duration
	var pushes, takes, reqCalls, grantCalls, acceptCalls, grants, accepts int
	next := 0
	for r := 0; r < rounds; r++ {
		now := sim.Time(int64(r) * int64(epochLen))
		until := now.Add(epochLen)
		first := next
		t0 = time.Now()
		for ; next < len(fl) && fl[next].Arrival < until; next++ {
			q.push(&fl[next], now)
		}
		pushD += time.Since(t0)
		pushes += next - first
		q.indexFresh()

		t0 = time.Now()
		for _, src := range q.srcs {
			m.Requests(int(src), &q.nodes[src], now, 0, q.request)
		}
		reqD += time.Since(t0)
		reqCalls += len(q.srcs)

		t0 = time.Now()
		for _, dst := range q.reqDsts {
			m.Grants(int(dst), q.reqs[dst], q.grant)
		}
		grantD += time.Since(t0)
		grantCalls += len(q.reqDsts)

		t0 = time.Now()
		for _, src := range q.grantSrcs {
			m.Accepts(int(src), &q.nodes[src], q.grants[src], q.matches, nil)
			q.matched(src)
		}
		acceptD += time.Since(t0)
		acceptCalls += len(q.grantSrcs)
		for _, src := range q.grantSrcs {
			grants += len(q.grants[src])
		}
		accepts += len(q.pairs)

		t0 = time.Now()
		for _, p := range q.pairs {
			q.take(p, portBytes)
		}
		takeD += time.Since(t0)
		takes += len(q.pairs)
		q.endRound()
	}
	t.pushNS = perCall(pushD, pushes)
	t.takeNS = perCall(takeD, takes)
	t.requestsNS = perCall(reqD, reqCalls)
	t.grantsNS = perCall(grantD, grantCalls)
	t.acceptsNS = perCall(acceptD, acceptCalls)
	if grants > 0 {
		t.acceptRatio = float64(accepts) / float64(grants)
	}
	t.pages = q.pages()
	return t, nil
}

// twinQueues is the queue state of the twin: one paged PIAS slab per
// source ToR plus the index of destinations with queued bytes that the
// matcher's QueueView walks, and the per-round REQUEST/GRANT/ACCEPT
// mailboxes.
type twinQueues struct {
	nodes   []twinNode
	pool    queue.PagePool
	segs    queue.SegPool
	srcs    []int32    // sources with queued bytes
	fresh   [][2]int32 // (src, dst) queues that became backlogged this round
	reqs    [][]match.Request
	reqDsts []int32
	grants  [][]match.Grant
	// grantSrcs lists sources holding grants this round.
	grantSrcs []int32
	matches   []int32
	pairs     [][2]int32 // accepted (src, dst) matches this round
}

// twinNode is one source ToR's queues; it is the matcher's QueueView.
type twinNode struct {
	slab   queue.DestSlab
	active []int32 // ascending destinations that may hold bytes
	listed bool    // in twinQueues.srcs
}

func newTwinQueues(n, ports int) *twinQueues {
	return &twinQueues{
		nodes:   make([]twinNode, n),
		reqs:    make([][]match.Request, n),
		grants:  make([][]match.Grant, n),
		matches: make([]int32, ports),
	}
}

func (q *twinQueues) push(f *flows.Flow, now sim.Time) {
	nd := &q.nodes[f.Src]
	if !nd.slab.Materialized() {
		nd.slab = queue.NewDestSlab(len(q.nodes), true)
	}
	dq := nd.slab.Queue(f.Dst, &q.pool)
	if dq.Empty() {
		q.fresh = append(q.fresh, [2]int32{int32(f.Src), int32(f.Dst)})
	}
	dq.PushBytesPool(&q.segs, f, f.Total(), 0, now)
	nd.slab.Add(f.Dst, f.Total())
}

// indexFresh adds the destinations that became backlogged to the demand
// index (bookkeeping of the twin, outside the timed pushes).
func (q *twinQueues) indexFresh() {
	for _, p := range q.fresh {
		nd := &q.nodes[p[0]]
		i := sort.Search(len(nd.active), func(i int) bool { return nd.active[i] >= p[1] })
		if i == len(nd.active) || nd.active[i] != p[1] {
			nd.active = append(nd.active, 0)
			copy(nd.active[i+1:], nd.active[i:])
			nd.active[i] = p[1]
		}
		if !nd.listed {
			nd.listed = true
			q.srcs = append(q.srcs, p[0])
		}
	}
	q.fresh = q.fresh[:0]
}

func (q *twinQueues) request(r match.Request) {
	if len(q.reqs[r.Dst]) == 0 {
		q.reqDsts = append(q.reqDsts, int32(r.Dst))
	}
	q.reqs[r.Dst] = append(q.reqs[r.Dst], r)
}

func (q *twinQueues) grant(g match.Grant) {
	if len(q.grants[g.Src]) == 0 {
		q.grantSrcs = append(q.grantSrcs, int32(g.Src))
	}
	q.grants[g.Src] = append(q.grants[g.Src], g)
}

func (q *twinQueues) matched(src int32) {
	for _, dst := range q.matches {
		if dst >= 0 {
			q.pairs = append(q.pairs, [2]int32{src, dst})
		}
	}
}

func (q *twinQueues) take(p [2]int32, n int64) {
	nd := &q.nodes[p[0]]
	dq := nd.slab.Probe(int(p[1]))
	taken := dq.Take(n, func(*flows.Flow, int64) {})
	nd.slab.Add(int(p[1]), -taken)
}

// endRound clears the mailboxes and drops drained queues from the index.
func (q *twinQueues) endRound() {
	for _, d := range q.reqDsts {
		q.reqs[d] = q.reqs[d][:0]
	}
	for _, s := range q.grantSrcs {
		q.grants[s] = q.grants[s][:0]
	}
	q.reqDsts, q.grantSrcs, q.pairs = q.reqDsts[:0], q.grantSrcs[:0], q.pairs[:0]
	srcs := q.srcs[:0]
	for _, s := range q.srcs {
		nd := &q.nodes[s]
		active := nd.active[:0]
		for _, d := range nd.active {
			if nd.slab.Bytes(int(d)) > 0 {
				active = append(active, d)
			}
		}
		nd.active = active
		if nd.listed = len(active) > 0; nd.listed {
			srcs = append(srcs, s)
		}
	}
	q.srcs = srcs
}

func (q *twinQueues) pages() int {
	var n int
	for i := range q.nodes {
		n += q.nodes[i].slab.MaterializedPages()
	}
	return n
}

func (nd *twinNode) QueuedBytes(dst int) int64              { return nd.slab.Bytes(dst) }
func (nd *twinNode) WeightedHoL(dst int, a float64) float64 { return 0 }
func (nd *twinNode) CumInjected(dst int) int64              { return 0 }

func (nd *twinNode) NextDemand(after int) int {
	i := sort.Search(len(nd.active), func(i int) bool { return int(nd.active[i]) > after })
	if i == len(nd.active) {
		return -1
	}
	return int(nd.active[i])
}

// tailPercentile returns the highest of p50, p90, p99, p99.9 and p99.99
// that has at least ten samples beyond it, its value, and how many
// samples lie beyond it.
func tailPercentile(sorted []float64) (pct, value float64, beyond int) {
	beyondOf := func(p float64) int { return len(sorted) - int(math.Ceil(p/100*float64(len(sorted)))) }
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if beyondOf(p) >= 10 {
			pct = p
		}
	}
	return pct, quantile(sorted, pct), beyondOf(pct)
}

// quantile returns the nearest-rank p-th percentile of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func perCall(d time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}
