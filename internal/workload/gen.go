package workload

import (
	"container/heap"
	"fmt"
	"math"

	"negotiator/internal/sim"
)

// Arrival is one flow arrival produced by a Generator. Tag groups flows
// belonging to the same application event: 0 marks background traffic and
// positive values identify incast events (used for incast finish time).
//
// Count > 1 makes the arrival a FLOW GROUP: one record standing for Count
// identical host flows of Size bytes each (0 and 1 both mean a single
// flow). The fabric injects one flows.Flow carrying the count; per-member
// FCTs are emitted at delivered-byte boundary crossings, so the metric
// stream matches Count separate arrivals wherever delivery is FIFO.
type Arrival struct {
	Time  sim.Time
	Src   int
	Dst   int
	Size  int64
	Tag   int
	Count int32
}

// Members reports how many host flows the arrival stands for (≥ 1).
func (a Arrival) Members() int64 {
	if a.Count > 1 {
		return int64(a.Count)
	}
	return 1
}

// Generator yields flow arrivals in non-decreasing time order. A generator
// may be infinite; engines stop pulling at their horizon.
type Generator interface {
	// Next returns the next arrival. ok is false when the generator is
	// exhausted.
	Next() (a Arrival, ok bool)
}

// Grouper is implemented by generators that can emit flow groups natively:
// SetGroup(k) makes every subsequent arrival stand for k identical host
// flows (Count = k). SetGroup(1) restores single-flow emission and is a
// strict no-op on the arrival stream.
type Grouper interface {
	SetGroup(k int)
}

// Grouped wraps a generator with flow-group coalescing: consecutive
// arrivals identical in (Time, Src, Dst, Size, Tag) merge into one group
// record whose member count is their combined member count times k. For
// streams with no identical neighbours (Poisson and the other trace-driven
// processes) coalescing never fires, and with k == 1 the output stream is
// byte-identical to the input — the property TestGroupEquivalence pins
// across the golden matrix.
type Grouped struct {
	g    Generator
	k    int64
	pend Arrival
	have bool
	done bool
}

// NewGroupBy wraps g; k multiplies each coalesced record's member count
// (k == 1 means pure coalescing). k must be ≥ 1.
func NewGroupBy(g Generator, k int) (*Grouped, error) {
	if k < 1 {
		return nil, fmt.Errorf("workload: flow-group factor must be >= 1, got %d", k)
	}
	return &Grouped{g: g, k: int64(k)}, nil
}

// Next implements Generator.
func (g *Grouped) Next() (Arrival, bool) {
	if !g.have {
		if g.done {
			return Arrival{}, false
		}
		a, ok := g.g.Next()
		if !ok {
			g.done = true
			return Arrival{}, false
		}
		g.pend = a
	}
	cur := g.pend
	g.have = false
	cnt := cur.Members()
	for !g.done {
		a, ok := g.g.Next()
		if !ok {
			g.done = true
			break
		}
		if a.Time == cur.Time && a.Src == cur.Src && a.Dst == cur.Dst && a.Size == cur.Size && a.Tag == cur.Tag {
			cnt += a.Members()
			continue
		}
		g.pend, g.have = a, true
		break
	}
	cnt *= g.k
	if cnt > math.MaxInt32 {
		panic(fmt.Sprintf("workload: flow group of %d members overflows the count", cnt))
	}
	if cnt > 1 {
		cur.Count = int32(cnt)
	}
	return cur, true
}

// Load computes the paper's network load for a mean flow size F (bytes),
// per-ToR host bandwidth R, N ToRs and mean inter-arrival τ:
// L = F / (R·N·τ).
func Load(meanFlowBytes float64, hostRate sim.Rate, n int, interArrival sim.Duration) float64 {
	denom := hostRate.BytesPerSecond() * float64(n) * interArrival.Seconds()
	if denom == 0 {
		return 0
	}
	return meanFlowBytes / denom
}

// InterArrivalFor inverts the load equation: the mean flow inter-arrival
// time τ that produces the requested load, rounded to the nearest
// nanosecond. At paper scale τ is a few tens of nanoseconds, so treat the
// result as informational; the Poisson generator keeps sub-nanosecond
// precision internally.
func InterArrivalFor(load float64, dist SizeDist, hostRate sim.Rate, n int) sim.Duration {
	if load <= 0 {
		return 1 << 60
	}
	tau := dist.Mean() / (hostRate.BytesPerSecond() * float64(n) * load)
	d := sim.Duration(tau*float64(sim.Second) + 0.5)
	if d < 1 {
		d = 1
	}
	return d
}

// Poisson generates background traffic: flows arrive as a Poisson process
// with sources and destinations chosen uniformly at random (distinct), and
// sizes drawn from dist — the paper's workload model (§4.1).
//
// Arrival times accumulate in float64 nanoseconds internally: at paper
// scale the mean inter-arrival is a few tens of nanoseconds, where integer
// truncation would bias the offered load by several percent.
type Poisson struct {
	dist   SizeDist
	n      int
	meanNs float64
	rng    *sim.RNG
	clock  float64
}

// NewPoisson returns a Poisson generator for n ToRs at the given load.
func NewPoisson(dist SizeDist, n int, load float64, hostRate sim.Rate, seed int64) *Poisson {
	g := &Poisson{
		dist: dist,
		n:    n,
		rng:  sim.NewRNG(seed),
	}
	if load > 0 {
		tauSec := dist.Mean() / (hostRate.BytesPerSecond() * float64(n) * load)
		g.meanNs = tauSec * 1e9
	} else {
		g.meanNs = 1e18
	}
	g.advance()
	return g
}

func (g *Poisson) advance() {
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	g.clock += -math.Log(u) * g.meanNs
}

// Next implements Generator. The process is unbounded.
func (g *Poisson) Next() (Arrival, bool) {
	src := g.rng.Intn(g.n)
	dst := g.rng.Intn(g.n - 1)
	if dst >= src {
		dst++
	}
	a := Arrival{Time: sim.Time(g.clock), Src: src, Dst: dst, Size: g.dist.Sample(g.rng)}
	g.advance()
	return a, true
}

// Incast generates one incast event: degree distinct sources each send one
// flow of size bytes to dst simultaneously at t (paper §4.2, Figure 7a).
type Incast struct {
	arrivals []Arrival
	pos      int
}

// NewIncast builds the event. Sources are chosen deterministically from
// seed among all ToRs except dst.
func NewIncast(n, dst, degree int, size int64, t sim.Time, tag int, seed int64) (*Incast, error) {
	var ev incastEvent
	if err := ev.fill(n, dst, degree, size, t, tag, seed); err != nil {
		return nil, err
	}
	return &Incast{arrivals: ev.arrivals}, nil
}

func (g *Incast) Next() (Arrival, bool) {
	if g.pos >= len(g.arrivals) {
		return Arrival{}, false
	}
	a := g.arrivals[g.pos]
	g.pos++
	return a, true
}

// incastEvent is the scratch one incast event is built in: the event's
// RNG, the source permutation and the arrivals. IncastMix refills one
// value for every event, so its steady state allocates nothing.
type incastEvent struct {
	rng      sim.RNG
	perm     []int
	arrivals []Arrival
}

// fill replaces the arrivals with those of one event: the first degree
// ToRs other than dst in a permutation of [0, n) drawn from seed.
func (ev *incastEvent) fill(n, dst, degree int, size int64, t sim.Time, tag int, seed int64) error {
	if degree > n-1 {
		return fmt.Errorf("workload: incast degree %d exceeds n-1=%d", degree, n-1)
	}
	ev.rng.Seed(seed)
	if cap(ev.perm) < n {
		ev.perm = make([]int, n)
	}
	ev.perm = ev.perm[:n]
	ev.rng.Perm(ev.perm)
	ev.arrivals = ev.arrivals[:0]
	for _, src := range ev.perm {
		if src == dst {
			continue
		}
		ev.arrivals = append(ev.arrivals, Arrival{Time: t, Src: src, Dst: dst, Size: size, Tag: tag})
		if len(ev.arrivals) == degree {
			break
		}
	}
	return nil
}

// AllToAll generates the synchronous all-to-all workload: at time t each
// ToR sends one flow of size bytes to every other ToR (paper §4.2,
// Figure 7b).
type AllToAll struct {
	n    int
	size int64
	t    sim.Time
	i, j int
}

// NewAllToAll returns the generator for n ToRs.
func NewAllToAll(n int, size int64, t sim.Time) *AllToAll {
	return &AllToAll{n: n, size: size, t: t}
}

func (g *AllToAll) Next() (Arrival, bool) {
	if g.j == g.i {
		g.j++
	}
	if g.j >= g.n {
		g.i++
		g.j = 0
		if g.j == g.i {
			g.j++
		}
	}
	if g.i >= g.n {
		return Arrival{}, false
	}
	a := Arrival{Time: g.t, Src: g.i, Dst: g.j, Size: g.size}
	g.j++
	return a, true
}

// SinglePair generates one very large flow between a fixed pair, modelling
// the continuously-transmitting pair of the failure micro-observation
// (paper Appendix A.4, Figure 19).
type SinglePair struct {
	done bool
	a    Arrival
}

// NewSinglePair returns the generator.
func NewSinglePair(src, dst int, size int64, t sim.Time) *SinglePair {
	return &SinglePair{a: Arrival{Time: t, Src: src, Dst: dst, Size: size}}
}

func (g *SinglePair) Next() (Arrival, bool) {
	if g.done {
		return Arrival{}, false
	}
	g.done = true
	return g.a, true
}

// IncastMix generates Poisson-arriving incast events: each event has the
// given degree and per-flow size, and events arrive so that incast traffic
// consumes bwFraction of the aggregate host downlink bandwidth (paper §4.4,
// Figure 13a: degree 20, 1 KB flows, 2%).
type IncastMix struct {
	n        int
	degree   int
	size     int64
	mean     sim.Duration
	rng      *sim.RNG
	nextTime sim.Time
	tag      int
	ev       incastEvent // the current event, refilled in place
	pos      int
}

// NewIncastMix returns the generator. Tags start at firstTag and increment
// per event.
func NewIncastMix(n, degree int, size int64, bwFraction float64, hostRate sim.Rate, firstTag int, seed int64) *IncastMix {
	eventBytes := float64(degree) * float64(size)
	rate := bwFraction * hostRate.BytesPerSecond() * float64(n) / eventBytes // events/s
	mean := sim.Duration(float64(sim.Second) / rate)
	if mean < 1 {
		mean = 1
	}
	g := &IncastMix{
		n: n, degree: degree, size: size,
		mean: mean, rng: sim.NewRNG(seed), tag: firstTag,
	}
	g.nextTime = sim.Time(g.rng.ExpDuration(mean))
	return g
}

func (g *IncastMix) Next() (Arrival, bool) {
	if g.pos >= len(g.ev.arrivals) {
		// Synthesise the next event.
		dst := g.rng.Intn(g.n)
		if err := g.ev.fill(g.n, dst, g.degree, g.size, g.nextTime, g.tag, int64(g.rng.Uint64())); err != nil {
			return Arrival{}, false
		}
		g.pos = 0
		g.tag++
		g.nextTime = g.nextTime.Add(g.rng.ExpDuration(g.mean))
	}
	a := g.ev.arrivals[g.pos]
	g.pos++
	return a, true
}

// Merge combines generators into one stream ordered by arrival time.
type Merge struct {
	h mergeHeap
}

type mergeEntry struct {
	a   Arrival
	gen Generator
}

type mergeHeap []mergeEntry

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].a.Time < h[j].a.Time }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewMerge merges the given generators.
func NewMerge(gens ...Generator) *Merge {
	m := &Merge{}
	for _, g := range gens {
		if a, ok := g.Next(); ok {
			m.h = append(m.h, mergeEntry{a, g})
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *Merge) Next() (Arrival, bool) {
	if m.h.Len() == 0 {
		return Arrival{}, false
	}
	top := m.h[0]
	if a, ok := top.gen.Next(); ok {
		m.h[0] = mergeEntry{a, top.gen}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.a, true
}
