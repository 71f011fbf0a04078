package match

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// shardView is a deterministic queue view: pair (src, dst) has queued bytes
// varying with the round so request sets change over time.
type shardView struct {
	src, n, round int
}

func (v *shardView) QueuedBytes(dst int) int64 {
	x := (v.src*31 + dst*17 + v.round*7) % 13
	return int64(x * 1000)
}
func (v *shardView) WeightedHoL(dst int, alpha float64) float64 {
	return float64((v.src*13 + dst*29 + v.round*3) % 11)
}
func (v *shardView) CumInjected(dst int) int64 {
	return int64(v.round+1) * int64((v.src*7+dst*5)%9) * 100
}

// NextDemand is the dense fallback: every destination may hold bytes.
func (v *shardView) NextDemand(after int) int {
	if after+1 >= v.n {
		return -1
	}
	return after + 1
}

// shardedFactories builds each non-batch matcher over the topology. Both
// instances of a pair must be built from identically seeded RNGs so ring
// init matches.
func shardedFactories(t topo.Topology) map[string]func(*sim.RNG) Matcher {
	return map[string]func(*sim.RNG) Matcher{
		"negotiator": func(r *sim.RNG) Matcher { return NewNegotiator(t, r) },
		"data-size":  func(r *sim.RNG) Matcher { return NewDataSize(t, r) },
		"hol-delay":  func(r *sim.RNG) Matcher { return NewHoLDelay(t, r) },
		"stateful":   func(r *sim.RNG) Matcher { return NewStateful(t, r, 20000) },
		"projector":  func(r *sim.RNG) Matcher { return NewProjecToR(t, r) },
	}
}

// drive runs `rounds` full request/grant/accept pipeline rounds over the
// matcher using p shard handles (p=1 uses the matcher itself) and returns
// a transcript of every grant and match. Handles run their shard's ToRs
// concurrently within each stage, with a barrier between stages, exactly
// as the engine drives them.
func drive(t *testing.T, m Matcher, n, s, p, rounds int) string {
	t.Helper()
	handles := []Matcher{m}
	if p > 1 {
		handles = m.Fork(p)
	}
	shardOf := func(tor int) int { return tor * p / n }
	local := make([][]int, p) // ToRs per shard, ascending
	for i := 0; i < n; i++ {
		local[shardOf(i)] = append(local[shardOf(i)], i)
	}
	if p == 1 {
		local = [][]int{}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		local = append(local, all)
	}

	var out string
	reqBox := make([][]Request, n) // per dst
	grantBox := make([][]Grant, n) // per src
	matches := make([][]int32, n)
	for i := range matches {
		matches[i] = make([]int32, s)
	}

	stage := func(fn func(h Matcher, tors []int)) {
		var wg sync.WaitGroup
		for k := range handles {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				fn(handles[k], local[k])
			}(k)
		}
		wg.Wait()
	}

	for round := 0; round < rounds; round++ {
		// ACCEPT over last round's grants (empty in round 0).
		stage(func(h Matcher, tors []int) {
			for _, i := range tors {
				v := &shardView{src: i, n: n, round: round}
				h.Accepts(i, v, grantBox[i], matches[i], func(g Grant, ok bool) { h.Feedback(g, ok) })
			}
		})
		// GRANT over last round's requests; outboxes merged in shard order
		// (per-shard slices appended shard-ascending reproduce dst order).
		grantOut := make([][]Grant, p)
		reqOut := make([][]Request, p)
		stage(func(h Matcher, tors []int) {
			k := 0
			if p > 1 {
				k = shardOf(tors[0])
			}
			for _, j := range tors {
				h.Grants(j, reqBox[j], func(g Grant) { grantOut[k] = append(grantOut[k], g) })
			}
			for _, i := range tors {
				v := &shardView{src: i, n: n, round: round}
				h.Requests(i, v, sim.Time(round), 1500, func(r Request) { reqOut[k] = append(reqOut[k], r) })
			}
		})
		for i := range grantBox {
			grantBox[i] = grantBox[i][:0]
			reqBox[i] = reqBox[i][:0]
		}
		var flat []Grant
		for k := 0; k < p; k++ {
			for _, g := range grantOut[k] {
				grantBox[g.Src] = append(grantBox[g.Src], g)
				flat = append(flat, g)
			}
			for _, r := range reqOut[k] {
				reqBox[r.Dst] = append(reqBox[r.Dst], r)
			}
		}
		out += fmt.Sprintf("round %d matches %v grants %v\n", round, matches, flat)
	}
	return out
}

// TestForkMatchesSequential: driving a forked matcher over shards must
// reproduce the sequential matcher's grants and matches exactly, for every
// forking implementation, shard count, and topology.
func TestForkMatchesSequential(t *testing.T) {
	const n, s = 16, 4
	for _, mk := range []struct {
		name string
		topo func() (topo.Topology, error)
	}{
		{"parallel", func() (topo.Topology, error) { return topo.NewParallel(n, s) }},
		{"thinclos", func() (topo.Topology, error) { return topo.NewThinClos(n, s, 4) }},
	} {
		top, err := mk.topo()
		if err != nil {
			t.Fatal(err)
		}
		for name, factory := range shardedFactories(top) {
			want := drive(t, factory(sim.NewRNG(42)), n, s, 1, 6)
			for _, p := range []int{2, 4, 8} {
				got := drive(t, factory(sim.NewRNG(42)), n, s, p, 6)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: fork(%d) transcript diverges from sequential:\n got: %s\nwant: %s",
						mk.name, name, p, got, want)
				}
			}
		}
	}
}

// TestForkSharesPerToRState: ring state advanced through one shard handle
// must be visible to a later fork — the handles are views, not copies.
func TestForkSharesPerToRState(t *testing.T) {
	top, err := topo.NewParallel(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewNegotiator(top, sim.NewRNG(1))
	h := m.Fork(2)[1]
	h.Grants(5, []Request{{Src: 1, Dst: 5}}, func(Grant) {})
	if m.grantRings[5][0] != h.(*Negotiator).grantRings[5][0] {
		t.Fatal("fork copied rings instead of sharing them")
	}
}
