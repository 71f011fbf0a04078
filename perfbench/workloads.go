package main

import (
	"fmt"

	negotiator "negotiator"
	"negotiator/internal/failure"
)

// workload is one benchmark input: a fabric spec, an open-loop arrival
// stream, and a fixed simulated span measured after a warm-up prefix.
// Spans are counted in scheduling rounds (NegotiaToR/hybrid epochs,
// oblivious round-robin cycles) so every run simulates the same work for
// a given instance seed. Seed fields are filled per instance.
type workload struct {
	name string
	spec negotiator.Spec
	// gen builds the arrival stream from an instance spec (its Seed).
	gen       func(spec negotiator.Spec) (negotiator.Workload, error)
	warmup    int // rounds simulated during set-up
	span      int // rounds simulated in the timed span
	snapEvery int // rounds between rolling in-memory snapshots; 0 = none
}

// instance returns the spec for one instance seed: it drives the fabric's
// randomness, the arrival stream and the choice of flapping links.
func (w workload) instance(seed int64) negotiator.Spec {
	s := w.spec
	s.Seed = seed
	if s.Failures != nil {
		f := *s.Failures
		f.Seed = seed
		s.Failures = &f
	}
	return s
}

// failurePlan rebuilds the failure.Plan the facade compiles from a
// flapping FailurePlan, so the failure layer can be timed on the identical
// transition list. Every field the facade would default is set explicitly
// in the workload definition.
func failurePlan(s negotiator.Spec) *failure.Plan {
	p := s.Failures
	if p == nil {
		return nil
	}
	return failure.Flapping(s.ToRs, s.Ports, p.Fraction, p.FailAt, p.Period, p.DownFor, p.Cycles, p.DetectDelay, p.Seed)
}

// workloads returns the four benchmark workloads. tiny shrinks every one
// to a few rounds on a small fabric with the same planes and traffic
// shapes, for the smoke test.
func workloads(tiny bool) []workload {
	heavy := negotiator.DefaultSpec()
	heavy.Workers = 1

	faults := negotiator.DefaultSpec()
	faults.ControlPlane = negotiator.ObliviousPlane
	faults.Topology = negotiator.ThinClos
	faults.Workers = 1

	hybrid := negotiator.DefaultSpec()
	hybrid.ControlPlane = negotiator.HybridPlane
	hybrid.Topology = negotiator.ThinClos
	hybrid.Workers = 1

	sparse := negotiator.DefaultSpec()
	sparse.ToRs = 65536
	sparse.Workers = 1
	active := 256

	// Rounds: dense epochs are 3.66 µs, oblivious cycles 0.96 µs, and a
	// 65,536-ToR epoch 494 µs of simulated time.
	heavyRounds, faultRounds, sparseRounds, snapEvery := [2]int{100, 1000}, [2]int{20, 150}, [2]int{8, 1000}, 200
	if tiny {
		for _, s := range []*negotiator.Spec{&heavy, &faults, &hybrid} {
			*s = shrink(*s)
		}
		sparse.ToRs, active = 1024, 32
		heavyRounds, faultRounds, sparseRounds, snapEvery = [2]int{4, 20}, [2]int{4, 20}, [2]int{4, 20}, 5
	}
	// Links flap for the whole run: down 4 µs of every 12 µs, detected
	// after 2 µs, so the failure cursor transitions throughout the span.
	total := negotiator.Duration(faultRounds[0]+faultRounds[1]) * 960 * negotiator.Nanosecond
	period := 12 * negotiator.Microsecond
	faults.Failures = &negotiator.FailurePlan{
		Scenario:    negotiator.FlappingLinks,
		Fraction:    0.02,
		Period:      period,
		DownFor:     4 * negotiator.Microsecond,
		Cycles:      int(total/period) + 1,
		DetectDelay: 2 * negotiator.Microsecond,
	}

	return []workload{
		{
			name: "paper-heavy", spec: heavy,
			gen: func(s negotiator.Spec) (negotiator.Workload, error) {
				// Figure 13a: Hadoop at 0.9 plus Poisson 20->1 incasts of
				// 1 KB flows using 2% of host bandwidth.
				return negotiator.MixedIncastWorkload(s, negotiator.Hadoop, 0.9, 20, 1000, 0.02, 1, s.Seed), nil
			},
			warmup: heavyRounds[0], span: heavyRounds[1],
		},
		{
			name: "baseline-faults", spec: faults,
			gen: func(s negotiator.Spec) (negotiator.Workload, error) {
				return negotiator.PoissonWorkload(s, negotiator.Hadoop, 0.75, s.Seed), nil
			},
			warmup: faultRounds[0], span: faultRounds[1],
		},
		{
			name: "hybrid-thinclos", spec: hybrid,
			gen: func(s negotiator.Spec) (negotiator.Workload, error) {
				return negotiator.PoissonWorkload(s, negotiator.Google, 0.9, s.Seed), nil
			},
			warmup: heavyRounds[0], span: heavyRounds[1],
		},
		{
			name: "wide-sparse", spec: sparse,
			gen: func(s negotiator.Spec) (negotiator.Workload, error) {
				return negotiator.PermutationWorkload(s, active, 1<<30, 0)
			},
			warmup: sparseRounds[0], span: sparseRounds[1], snapEvery: snapEvery,
		},
	}
}

// shrink reduces a 128-ToR spec to the 16-ToR SmallSpec dimensions,
// keeping its plane, topology and failure plan.
func shrink(s negotiator.Spec) negotiator.Spec {
	small := negotiator.SmallSpec()
	s.ToRs, s.Ports, s.AWGRPorts, s.HostRate = small.ToRs, small.Ports, small.AWGRPorts, small.HostRate
	return s
}

func workloadByName(name string, tiny bool) (workload, error) {
	var names []string
	for _, w := range workloads(tiny) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
