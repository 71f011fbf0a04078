package match

// scratchClone returns a copy of m with fresh private scratch and shared
// topology, rings and per-ToR state.
func (m *Negotiator) scratchClone() *Negotiator {
	n, s := m.topo.N(), m.topo.Ports()
	c := &Negotiator{
		topo:        m.topo,
		identityDom: m.identityDom,
		grantRings:  m.grantRings,
		acceptRings: m.acceptRings,
		grantable:   make([][]int32, s),
		candMask:    make([]uint64, (n+63)>>6),
	}
	c.candSum = make([]uint64, (len(c.candMask)+63)>>6)
	for p := range c.grantable {
		c.grantable[p] = make([]int32, 0, 8)
	}
	if !m.identityDom {
		c.domMask = newDomMask(m.topo)
		c.domWords = m.domWords
		c.grp, c.pos = m.grp, m.pos // read-only tables, shared
	}
	return c
}

// Fork implements Matcher for the base matcher.
func (m *Negotiator) Fork(p int) []Matcher {
	out := make([]Matcher, p)
	for k := range out {
		out[k] = m.scratchClone()
	}
	return out
}

// Fork implements Matcher: handles share the rings, each owns its priority
// scratch.
func (m *Informative) Fork(p int) []Matcher {
	out := make([]Matcher, p)
	for k := range out {
		out[k] = &Informative{
			Negotiator: m.Negotiator.scratchClone(),
			kind:       m.kind,
			portReqs:   make([][]int32, m.topo.Ports()),
		}
	}
	return out
}

// Fork implements Matcher: handles share the traffic matrix and the
// reported-bytes table. Matrix rows are written by Grants(dst) — one shard
// per dst — and by Feedback at element (g.Dst, g.Src), unique per source
// and therefore per shard; reported[src] is only touched by Requests(src).
func (m *Stateful) Fork(p int) []Matcher {
	out := make([]Matcher, p)
	for k := range out {
		out[k] = &Stateful{
			Negotiator: m.Negotiator.scratchClone(),
			epochBytes: m.epochBytes,
			matrix:     m.matrix,
			reported:   m.reported,
		}
	}
	return out
}

// Fork implements Matcher: handles share the per-source port rotation
// (only Requests(src) touches rotate[src]), each owns its per-port best
// scratch.
func (m *ProjecToR) Fork(p int) []Matcher {
	s := m.topo.Ports()
	out := make([]Matcher, p)
	for k := range out {
		out[k] = &ProjecToR{
			Negotiator: m.Negotiator.scratchClone(),
			rotate:     m.rotate,
			bestDelay:  make([]float64, s),
			bestSrc:    make([]int32, s),
		}
	}
	return out
}
