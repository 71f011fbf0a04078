package negotiator

import (
	"fmt"

	"negotiator/internal/fabric"
	"negotiator/internal/match"
	"negotiator/internal/sim"
)

// RequestCache holds, per source, the REQUEST emissions of its last
// captured sweep, stamped with the node's demand version. While the version
// is unchanged no push or take touched the source's direct VOQs, so a pure
// matcher would re-emit exactly this row: the epoch replays it instead of
// re-walking the view. Capture is lazy — the first sweep at a new version
// only records it (seen), the next one at the same version captures the
// row (valid) — so rows whose demand changes every epoch, the dense
// saturated regime, pay a version read and a branch, never a capture.
// Rows are per source and shards own disjoint source ranges, so
// concurrent shards never share a row.
type RequestCache struct {
	rows   []cacheRow
	fab    *fabric.Core
	verify bool
}

type cacheRow struct {
	reqs []match.Request
	// segs ends (exclusive) each run of requests bound for one shard:
	// emissions ascend by destination and shards are contiguous ranges.
	segs  []reqSeg
	ver   int64
	seen  bool
	valid bool
}

type reqSeg struct{ shard, end int32 }

// NewRequestCache returns a cold cache over the core's sources. With verify
// (CheckInvariants) every replay is shadowed by a fresh sweep and compared
// element-wise: the cache must be invisible.
func NewRequestCache(fab *fabric.Core, verify bool) *RequestCache {
	return &RequestCache{rows: make([]cacheRow, fab.N), fab: fab, verify: verify}
}

// Requester is one shard's REQUEST step over its matcher handle, at the
// plane's request threshold, through the plane's cache (nil: every source
// sweeps fresh).
type Requester struct {
	cache     *RequestCache
	matcher   match.Matcher
	threshold int64
	into      *[]match.Request // collect's target
	collect   func(match.Request)
	shadow    []match.Request
}

// NewRequester builds a shard's requester. A non-nil cache requires a pure
// Requests (match.RequestTraits).
func NewRequester(cache *RequestCache, m match.Matcher, threshold int64) *Requester {
	r := &Requester{cache: cache, matcher: m, threshold: threshold}
	r.collect = func(q match.Request) { *r.into = append(*r.into, q) }
	return r
}

// Source emits source i's requests through emit: a fresh sweep while its
// demand moves, a replay of the cached row while it stands still. A
// non-nil bulk takes a replayed row wholesale instead, one call per run of
// requests bound for one destination shard; a caller whose emit drops or
// rewrites requests this epoch must pass a nil bulk.
func (r *Requester) Source(i int, view match.QueueView, now sim.Time, emit func(match.Request), bulk func(shard int32, reqs []match.Request)) {
	if r.cache == nil {
		r.matcher.Requests(i, view, now, r.threshold, emit)
		return
	}
	c := &r.cache.rows[i]
	if ver := r.cache.fab.Nodes[i].DemandVer(); !c.seen || c.ver != ver {
		c.ver, c.seen, c.valid = ver, true, false
		r.matcher.Requests(i, view, now, r.threshold, emit)
		return
	}
	if !c.valid {
		// The version held for a full epoch: capture the row, then emit
		// it as every later epoch will.
		r.sweep(i, view, now, &c.reqs)
		c.segs = c.segs[:0]
		for k, q := range c.reqs {
			s := r.cache.fab.ShardOf[q.Dst]
			if n := len(c.segs); n == 0 || c.segs[n-1].shard != s {
				c.segs = append(c.segs, reqSeg{shard: s})
			}
			c.segs[len(c.segs)-1].end = int32(k + 1)
		}
		c.valid = true
	} else if r.cache.verify {
		r.sweep(i, view, now, &r.shadow)
		if len(r.shadow) != len(c.reqs) {
			panic(fmt.Sprintf("negotiator: request cache diverged at ToR %d: %d cached vs %d fresh", i, len(c.reqs), len(r.shadow)))
		}
		for k := range r.shadow {
			if r.shadow[k] != c.reqs[k] {
				panic(fmt.Sprintf("negotiator: request cache diverged at ToR %d request %d: cached %+v fresh %+v", i, k, c.reqs[k], r.shadow[k]))
			}
		}
	}
	if bulk == nil {
		for _, q := range c.reqs {
			emit(q)
		}
		return
	}
	a := int32(0)
	for _, s := range c.segs {
		bulk(s.shard, c.reqs[a:s.end])
		a = s.end
	}
}

// sweep runs a fresh REQUEST sweep of source i into *dst (reset first).
func (r *Requester) sweep(i int, view match.QueueView, now sim.Time, dst *[]match.Request) {
	*dst = (*dst)[:0]
	r.into = dst
	r.matcher.Requests(i, view, now, r.threshold, r.collect)
	r.into = nil
}
