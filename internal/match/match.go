package match

import (
	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

// QueueView lets matchers read a source ToR's per-destination queue state
// without coupling to the queue implementation.
type QueueView interface {
	// QueuedBytes returns the bytes currently queued for dst.
	QueuedBytes(dst int) int64
	// WeightedHoL returns the paper's weighted head-of-line delay for dst
	// (Appendix A.2.3).
	WeightedHoL(dst int, alpha float64) float64
	// CumInjected returns the cumulative bytes ever enqueued for dst, used
	// by the stateful variant to report newly arrived demand.
	CumInjected(dst int) int64
	// NextDemand returns the smallest destination strictly greater than
	// after that may hold queued bytes, or -1. Iterating from -1 visits a
	// superset of {dst : QueuedBytes(dst) > 0} in ascending order, so the
	// REQUEST sweep costs O(active destinations) instead of O(N) — the
	// engines back it with their occupancy indexes.
	NextDemand(after int) int
}

// Request is a scheduling request from Src to Dst. The base algorithm uses
// only the binary fact of its existence; variants attach extra fields.
type Request struct {
	Src, Dst int
	Port     int     // ProjecToR variant: pre-bound source port; -1 for ToR-level
	Size     int64   // data-size variant: queued bytes
	Delay    float64 // HoL-delay / ProjecToR variants: waiting-delay priority
	NewBytes int64   // stateful variant: bytes newly arrived since last request
}

// Grant allocates destination Dst's port Port to source Src.
type Grant struct {
	Dst, Port, Src int
}

// Matcher is one scheduling policy, invoked by the fabric engine once per
// ToR per pipeline stage. Implementations keep all per-ToR state internally
// (indexed by ToR id) and are single-goroutine.
type Matcher interface {
	// Name identifies the policy in experiment output.
	Name() string
	// MatchDelay returns the pipeline depth in epochs from the epoch a
	// request is issued to the epoch its match carries data. The base
	// non-iterative pipeline is 2 (request n, grant n+1, accept+data n+2,
	// paper Figure 4); each extra iteration adds three epochs (A.2.1).
	MatchDelay() int
	// Requests emits this epoch's requests from src given its queue state.
	// threshold is the engine's request threshold in bytes (3 piggyback
	// payloads when data piggybacking is on, §3.4.1).
	Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request))
	// Grants runs the GRANT step at dst over the requests it received,
	// emitting at most one grant per uplink port.
	Grants(dst int, reqs []Request, emit func(Grant))
	// Accepts runs the ACCEPT step at src over the grants it received,
	// writing the matched destination (or -1) into matches[port] and
	// reporting per-grant accept/reject feedback (consumed by the stateful
	// variant; the base algorithm ignores it).
	Accepts(src int, view QueueView, grants []Grant, matches []int32, feedback func(g Grant, accepted bool))
	// Feedback delivers a source's accept/reject decision back to the
	// granting destination (stateful variant; no-op otherwise).
	Feedback(g Grant, accepted bool)
	// Fork returns p handles whose per-ToR pipeline steps can run
	// concurrently over disjoint ToR shards. The handles SHARE the
	// matcher's per-ToR state — the round-robin rings (grantRings[dst] is
	// only touched by Grants(dst), acceptRings[src] only by Accepts(src),
	// so ToR-sharding partitions them naturally), the stateful traffic
	// matrix, and per-source rotation counters — while each handle owns
	// PRIVATE scratch (request stamps, grantable lists, priority tables),
	// the state that a sequential matcher reuses across per-ToR calls and
	// that concurrent calls would otherwise race on.
	//
	// The contract mirrors the engine's sequential loop:
	//
	//   - handle k must only be invoked for ToRs of shard k (so shared
	//     per-ToR state is touched by exactly one handle);
	//   - all handles run the same pipeline stage between barriers, in the
	//     stage order of the sequential engine (all Accepts, barrier, all
	//     Grants, all Requests) — Stateful's Feedback writes the shared
	//     matrix element (dst, src), which is unique per source and
	//     therefore per shard, and the barrier publishes those writes
	//     before Grants reads the rows;
	//   - the original matcher remains the owner: Fork may be called again
	//     (e.g. after a worker-count change) and the handles of the
	//     previous fork must no longer be used.
	//
	// Batch matchers (Iterative, Classic) inherit Fork from their embedded
	// Negotiator: the engine runs their Match serially on the original
	// instance and drives only the per-ToR Requests step on the forked
	// handles — which is exactly the promoted base Requests for the
	// built-in batch matchers. A batch matcher that overrides Requests
	// must shadow Fork as well, so its handles carry the overridden
	// behaviour.
	Fork(p int) []Matcher
}

// RequestTraits declares what an engine may assume about a matcher's
// Requests step. Both properties gate request-side fast paths; a matcher
// that does not implement the interface gets the conservative (false,
// false) reading from TraitsOf and keeps the dense from-scratch scan.
type RequestTraits interface {
	// RequestsIdleSafe reports that Requests on a source with no queued
	// demand emits nothing and mutates no matcher state — so an engine may
	// skip the call entirely for demand-free sources (O(active-source)
	// request loops) and a fully idle round may be fast-forwarded without
	// invoking the matcher at all.
	RequestsIdleSafe() bool
	// RequestsPure reports that Requests is a pure function of the view's
	// queued-bytes state and the threshold: it reads no clock-dependent
	// signal (WeightedHoL) and mutates no matcher state. An engine may
	// then cache a source's emissions and replay them byte-for-byte while
	// the source's demand row is unchanged. Pure implies idle-safe.
	RequestsPure() bool
}

// TraitsOf reads a matcher's request-step capabilities, defaulting to the
// conservative (false, false) for matchers that do not declare them.
func TraitsOf(m Matcher) (idleSafe, pure bool) {
	t, ok := m.(RequestTraits)
	if !ok {
		return false, false
	}
	return t.RequestsIdleSafe(), t.RequestsPure()
}

// Negotiator is the paper's NegotiaToR Matching: binary ToR-level requests,
// port-level grants via round-robin rings (one shared ring per destination
// on the parallel network, one ring per destination port on thin-clos,
// Figure 3), and port-level accepts via per-port rings. Non-iterative and
// stateless.
type Negotiator struct {
	topo topo.Topology
	// identityDom marks topologies whose port domains are the identity
	// (parallel network: domain position == ToR id). Grants and Accepts
	// then run their ring arbitration as word-scan priority encoding over
	// a candidate bitmask (Ring.PickMask) instead of an O(N) predicate
	// scan — the structure a switch ASIC builds, and the O(active +
	// N/64) software path the 1024-ToR sparse regime needs.
	identityDom bool

	// grantRings[dst]: length 1 (parallel, shared) or S (thin-clos,
	// per-port). Ring positions index the port's domain.
	grantRings [][]*Ring
	// acceptRings[src][port], positions index ToR ids (parallel) or the
	// port's reachable destination group (thin-clos domain size).
	acceptRings [][]*Ring

	// scratch, reused across calls.
	grantable [][]int32 // grantable[port] = dsts granting that port (scratch)
	// candMask is the identityDom candidate bitmask scratch; every use
	// sets exactly the candidate bits and clears them again after
	// arbitration, so the mask is all-zero between calls. candSum is its
	// summary level (one bit per mask word), letting PickMaskSum skip
	// empty words 64 at a time — without it the word-scan itself was an
	// O(N/64) per-arbitration term at 65,536 ToRs. The base matcher's
	// identity-domain paths maintain both; variants that arbitrate with
	// plain PickMask may ignore candSum as long as they restore the mask
	// to all-zero.
	candMask []uint64
	candSum  []uint64
	// domMask is the non-identity counterpart: one candidate bitmask per
	// port, in that port's DOMAIN-POSITION space (topo.DomainPos), so the
	// thin-clos grant/accept rings arbitrate by the same Ring.PickMask
	// word-scan the parallel network uses instead of an O(domain)
	// predicate walk. Like candMask, every use clears the bits it set.
	domMask [][]uint64
	// grp/pos are the thin-clos group and local-index tables (nil on
	// other topologies): port(src→dst) = (grp[src]+grp[dst]) mod S and
	// domain position = pos[src], turning the mask-building request
	// sweeps into table lookups — no divisions, no interface calls — so
	// the dense regime pays no more than the old stamp stores did.
	grp, pos []int32
	// domWords is the total word count across domMask — the wholesale
	// zeroing cost, against which clearDomMasks weighs an exact-bits
	// second request pass.
	domWords int
}

// NewNegotiator returns the base matcher for the given topology. rng seeds
// the random initial ring pointers.
func NewNegotiator(t topo.Topology, rng *sim.RNG) *Negotiator {
	n, s := t.N(), t.Ports()
	m := &Negotiator{topo: t}
	m.grantRings = make([][]*Ring, n)
	m.acceptRings = make([][]*Ring, n)
	_, shared := t.(*topo.Parallel)
	for i := 0; i < n; i++ {
		if shared {
			m.grantRings[i] = []*Ring{NewRing(n, rng)}
		} else {
			rings := make([]*Ring, s)
			for p := 0; p < s; p++ {
				rings[p] = NewRing(len(t.PortDomain(i, p)), rng)
			}
			m.grantRings[i] = rings
		}
		rings := make([]*Ring, s)
		for p := 0; p < s; p++ {
			rings[p] = NewRing(len(t.PortDomain(i, p)), rng)
		}
		m.acceptRings[i] = rings
	}
	m.identityDom = shared
	m.grantable = make([][]int32, s)
	for p := range m.grantable {
		m.grantable[p] = make([]int32, 0, 8)
	}
	m.candMask = make([]uint64, (n+63)>>6)
	m.candSum = make([]uint64, (len(m.candMask)+63)>>6)
	if !shared {
		m.domMask = newDomMask(t)
		for _, mask := range m.domMask {
			m.domWords += len(mask)
		}
		if tc, ok := t.(*topo.ThinClos); ok {
			w := tc.W()
			m.grp = make([]int32, n)
			m.pos = make([]int32, n)
			for i := 0; i < n; i++ {
				m.grp[i] = int32(i / w)
				m.pos[i] = int32(i % w)
			}
		}
	}
	return m
}

// portAndPos returns the port src reaches dst on and src's domain
// position there: table lookups on thin-clos, the Topology interface
// otherwise. (-1, -1) when src cannot reach dst on a unique port.
func (m *Negotiator) portAndPos(dst, src int) (int32, int32) {
	if m.grp != nil {
		if src == dst {
			return -1, -1
		}
		p := m.grp[src] + m.grp[dst]
		if s := int32(len(m.domMask)); p >= s {
			p -= s
		}
		return p, m.pos[src]
	}
	p, pos := m.topo.PortAndDomainPos(dst, src)
	return int32(p), int32(pos)
}

// newDomMask allocates per-port candidate masks in domain-position space.
func newDomMask(t topo.Topology) [][]uint64 {
	s := t.Ports()
	masks := make([][]uint64, s)
	for p := 0; p < s; p++ {
		masks[p] = make([]uint64, (len(t.PortDomain(0, p))+63)>>6)
	}
	return masks
}

func (m *Negotiator) Name() string    { return "negotiator" }
func (m *Negotiator) MatchDelay() int { return 2 }

// RequestsIdleSafe: the base REQUEST sweep emits only for queued demand
// and touches no matcher state. Embedders inherit both traits; variants
// whose Requests reads the clock or mutates state override them.
func (m *Negotiator) RequestsIdleSafe() bool { return true }

// RequestsPure: binary requests depend only on queued bytes vs threshold.
func (m *Negotiator) RequestsPure() bool { return true }

// Requests implements the REQUEST step: a binary request to every
// destination whose per-destination queue exceeds the threshold (§3.2.1
// with the piggybacking adjustment of §3.4.1). The sweep follows the
// view's demand index — ascending order, so emissions are identical to a
// dense 0..N-1 scan, at O(active destinations) cost.
func (m *Negotiator) Requests(src int, view QueueView, now sim.Time, threshold int64, emit func(Request)) {
	for dst := view.NextDemand(-1); dst >= 0; dst = view.NextDemand(dst) {
		if dst == src {
			continue
		}
		if view.QueuedBytes(dst) > threshold {
			emit(Request{Src: src, Dst: dst, Port: -1})
		}
	}
}

// Grants implements the GRANT step at dst.
func (m *Negotiator) Grants(dst int, reqs []Request, emit func(Grant)) {
	if len(reqs) == 0 {
		return
	}
	if m.identityDom {
		// Word-scan path: the requester set as a bitmask, each port's
		// pick a find-first-set from the shared ring's pointer. Winners
		// stay candidates for later ports, exactly as the predicate scan
		// leaves them.
		for _, r := range reqs {
			m.candMask[r.Src>>6] |= 1 << (uint(r.Src) & 63)
			m.candSum[r.Src>>12] |= 1 << (uint(r.Src>>6) & 63)
		}
		ring := m.grantRings[dst][0]
		s := m.topo.Ports()
		for port := 0; port < s; port++ {
			pos := ring.PickMaskSum(m.candMask, m.candSum)
			if pos < 0 {
				break
			}
			ring.Advance(pos)
			emit(Grant{Dst: dst, Port: port, Src: pos})
		}
		for _, r := range reqs {
			m.candMask[r.Src>>6] &^= 1 << (uint(r.Src) & 63)
			m.candSum[r.Src>>12] &^= 1 << (uint(r.Src>>6) & 63)
		}
		return
	}
	// Per-port word-scan path: each requester reaches dst on exactly one
	// port (thin-clos single paths), so one pass over the requests builds
	// every port's candidate mask in domain-position space, and each
	// port's pick is a Ring.PickMask find-first-set instead of an
	// O(domain) ring.Pick predicate walk. The masks are zeroed wholesale
	// afterwards (S·⌈W/64⌉ words — cheaper than a second request pass).
	for _, r := range reqs {
		p, pos := m.portAndPos(dst, r.Src)
		if p < 0 {
			continue
		}
		m.domMask[p][pos>>6] |= 1 << (uint(pos) & 63)
	}
	s := m.topo.Ports()
	rings := m.grantRings[dst]
	for port := 0; port < s; port++ {
		ring := rings[0]
		if len(rings) > 1 {
			ring = rings[port]
		}
		pos := ring.PickMask(m.domMask[port])
		if pos < 0 {
			continue
		}
		ring.Advance(pos)
		emit(Grant{Dst: dst, Port: port, Src: m.topo.PortDomain(dst, port)[pos]})
	}
	m.clearDomMasks(dst, reqs)
}

// zeroDomMasks restores the all-zero between-calls state of the per-port
// candidate masks.
func (m *Negotiator) zeroDomMasks() {
	for _, mask := range m.domMask {
		for i := range mask {
			mask[i] = 0
		}
	}
}

// clearDomMasks restores the all-zero state after a Grants arbitration.
// When the request set is sparse relative to the masks' footprint it
// clears exactly the bits the request pass set (one more portAndPos
// sweep); dense request sets keep the wholesale memclr, which is 64x
// denser per touched bit. Without the sparse path the S·⌈W/64⌉ zeroing
// was a width-proportional per-call term on wide thin-clos fabrics.
func (m *Negotiator) clearDomMasks(dst int, reqs []Request) {
	if 4*len(reqs) >= m.domWords {
		m.zeroDomMasks()
		return
	}
	for _, r := range reqs {
		if p, pos := m.portAndPos(dst, r.Src); p >= 0 {
			m.domMask[p][pos>>6] &^= 1 << (uint(pos) & 63)
		}
	}
}

// Accepts implements the ACCEPT step at src: one grant per port, chosen by
// the per-port round-robin ring.
func (m *Negotiator) Accepts(src int, view QueueView, grants []Grant, matches []int32, feedback func(Grant, bool)) {
	for p := range matches {
		matches[p] = -1
		m.grantable[p] = m.grantable[p][:0]
	}
	for _, g := range grants {
		m.grantable[g.Port] = append(m.grantable[g.Port], int32(g.Dst))
	}
	for port := range matches {
		cand := m.grantable[port]
		if len(cand) == 0 {
			continue
		}
		ring := m.acceptRings[src][port]
		if m.identityDom {
			// Word-scan path: granting dsts as a bitmask, one
			// find-first-set from the per-port ring's pointer.
			for _, c := range cand {
				m.candMask[c>>6] |= 1 << (uint(c) & 63)
				m.candSum[c>>12] |= 1 << (uint(c>>6) & 63)
			}
			pos := ring.PickMaskSum(m.candMask, m.candSum)
			for _, c := range cand {
				m.candMask[c>>6] &^= 1 << (uint(c) & 63)
				m.candSum[c>>12] &^= 1 << (uint(c>>6) & 63)
			}
			if pos < 0 {
				continue
			}
			ring.Advance(pos)
			matches[port] = int32(pos)
			continue
		}
		// Word-scan path in the port's domain-position space: granting
		// dsts as a bitmask, one find-first-set from the ring's pointer.
		mask := m.domMask[port]
		if m.pos != nil {
			// Grants arrive on the pair's unique port, so membership in
			// this port's domain is implied and the position is a table
			// read.
			for _, c := range cand {
				pos := m.pos[c]
				mask[pos>>6] |= 1 << (uint(pos) & 63)
			}
		} else {
			for _, c := range cand {
				if pos := m.topo.DomainPos(src, port, int(c)); pos >= 0 {
					mask[pos>>6] |= 1 << (uint(pos) & 63)
				}
			}
		}
		pos := ring.PickMask(mask)
		// Restore the all-zero mask: exact-bits clear for sparse grant
		// sets, wholesale memclr when dense (see clearDomMasks).
		if 4*len(cand) >= len(mask) {
			for i := range mask {
				mask[i] = 0
			}
		} else if m.pos != nil {
			for _, c := range cand {
				p := m.pos[c]
				mask[p>>6] &^= 1 << (uint(p) & 63)
			}
		} else {
			for _, c := range cand {
				if p := m.topo.DomainPos(src, port, int(c)); p >= 0 {
					mask[p>>6] &^= 1 << (uint(p) & 63)
				}
			}
		}
		if pos < 0 {
			continue
		}
		ring.Advance(pos)
		matches[port] = int32(m.topo.PortDomain(src, port)[pos])
	}
	if feedback != nil {
		for _, g := range grants {
			feedback(g, matches[g.Port] == int32(g.Dst))
		}
	}
}

// Feedback is a no-op for the stateless base algorithm.
func (m *Negotiator) Feedback(Grant, bool) {}
