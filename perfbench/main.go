// Command perfbench is the repository's host-time benchmark. Each workload
// is a fixed simulated span under open-loop Poisson load; the benchmark
// measures what simulating that span costs the host — wall time, CPU and
// memory — and checks that the simulated result is the recorded one.
//
//	bash perfbench/run.sh --workload paper-heavy --seed 1 --seconds 25 --trace 0
//
// With --trace 1 it alternates untraced and traced repetitions and reports
// per-layer numbers instead (see README.md). The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	_ "embed"

	negotiator "negotiator"
)

// instancesPerSeed is how many instances one --seed expands to. A run
// cycles through them so its medians average over several arrival
// streams: a single stream's simulated work moves by up to ±13% with the
// seed, which would otherwise show up as run-to-run spread.
const instancesPerSeed = 4

// instanceSeed maps (seed, k) to the seed of the k-th instance.
func instanceSeed(seed int64, k int) int64 { return seed*instancesPerSeed + int64(k) }

//go:embed fingerprints.golden
var goldenFile string

func main() {
	name := flag.String("workload", "", "workload to run: paper-heavy, baseline-faults, hybrid-thinclos, wide-sparse, or all (each in turn)")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	record := flag.Int("record", 0, "print golden fingerprints for seeds [0, n) of every workload and exit")
	flag.Parse()
	if *record > 0 {
		if err := recordGoldens(os.Stdout, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ws := workloads(false)
	if *name != "all" {
		w, err := workloadByName(*name, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	golden, err := parseGoldens(goldenFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, w := range ws {
		b := bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), golden: golden, log: os.Stderr}
		res := b.untraced
		if *trace == 1 {
			res = b.traced
		}
		fmt.Printf("== %s\n", w.name)
		if err := res().print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// bench runs one workload for a host-time budget.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	golden map[string]string // "workload/instance-seed" -> fingerprint
	log    io.Writer         // human-readable progress and per-layer detail

	// first fingerprint seen per instance seed, for instances without a
	// recorded golden: every later repetition must reproduce it.
	seen     map[int64]string
	attempts int
	failures int
}

// sample is one untraced repetition: set-up, then the timed span.
type sample struct {
	setup, run, cpu    float64 // seconds
	liveHeapMB, allocM float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) print(out io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "failed/attempted %d/%d\n", r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func (b *bench) result(metrics map[string]metric) result {
	return result{Correct: b.failures == 0, Attempted: b.attempts, Failed: b.failures, Metrics: metrics}
}

// untraced repeats set-up + span until the budget is spent (at least one
// pass over the seed's instances) and reports the medians.
func (b *bench) untraced() result {
	var samples []sample
	start := time.Now()
	for k := 0; k < instancesPerSeed || b.fits(start, k); k++ {
		s, err := b.measure(instanceSeed(b.seed, k%instancesPerSeed))
		if err != nil {
			continue
		}
		samples = append(samples, s)
	}
	pick := func(f func(sample) float64) float64 { return medianOf(samples, f) }
	return b.result(map[string]metric{
		"setup_s":      {pick(func(s sample) float64 { return s.setup }), "s"},
		"run_s":        {pick(func(s sample) float64 { return s.run }), "s"},
		"cpu_s":        {pick(func(s sample) float64 { return s.cpu }), "s"},
		"live_heap_mb": {pick(func(s sample) float64 { return s.liveHeapMB }), "MB"},
		"alloc_mb":     {pick(func(s sample) float64 { return s.allocM }), "MB"},
	})
}

// fits reports whether another repetition, as long as the mean of those
// done so far, still ends inside the budget.
func (b *bench) fits(start time.Time, done int) bool {
	el := time.Since(start)
	return el+el/time.Duration(done) <= b.budget
}

// measure runs one untraced repetition of an instance and checks its
// fingerprint. A failed repetition counts against the run.
func (b *bench) measure(seed int64) (sample, error) {
	b.attempts++
	spec := b.w.instance(seed)
	runtime.GC() // the previous repetition's fabric is garbage now
	cpu0 := cpuSeconds()
	t0 := time.Now()
	fab, err := b.setup(spec)
	setup := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return sample{}, b.fail(seed, err)
	}
	runtime.GC() // set-up garbage is not charged to the span
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 = cpuSeconds()
	t0 = time.Now()
	sum, cdf, err := b.span(fab)
	run := time.Since(t0).Seconds()
	cpu += cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	runtime.KeepAlive(fab)
	if err != nil {
		return sample{}, b.fail(seed, err)
	}
	s := sample{setup: setup, run: run, cpu: cpu, liveHeapMB: float64(live) / 1e6, allocM: float64(alloc) / 1e6}
	fp := fingerprint(sum, cdf)
	if err := b.check(seed, sum, fp); err != nil {
		return sample{}, err
	}
	fmt.Fprintf(b.log, "%s seed=%d setup=%.4fs run=%.4fs cpu=%.4fs live=%.1fMB alloc=%.1fMB fp=%s\n",
		b.w.name, seed, s.setup, s.run, s.cpu, s.liveHeapMB, s.allocM, fp)
	return s, nil
}

// setup builds the fabric, attaches the workload and runs the warm-up.
func (b *bench) setup(spec negotiator.Spec) (negotiator.Fabric, error) {
	fab, err := spec.Build()
	if err != nil {
		return nil, err
	}
	gen, err := b.w.gen(spec)
	if err != nil {
		return nil, err
	}
	fab.SetWorkload(gen)
	fab.RunEpochs(b.w.warmup)
	return fab, nil
}

// span simulates the timed rounds, taking the rolling in-memory
// checkpoints, and reads the results out.
func (b *bench) span(fab negotiator.Fabric) (negotiator.Summary, string, error) {
	var buf bytes.Buffer
	for done := 0; done < b.w.span; {
		k := b.w.span - done
		if b.w.snapEvery > 0 && k > b.w.snapEvery {
			k = b.w.snapEvery
		}
		fab.RunEpochs(k)
		done += k
		if b.w.snapEvery > 0 && done%b.w.snapEvery == 0 {
			buf.Reset()
			if err := fab.Snapshot(&buf); err != nil {
				return negotiator.Summary{}, "", fmt.Errorf("snapshot after %d rounds: %w", done, err)
			}
		}
	}
	sum := fab.Summary()
	return sum, fmt.Sprint(fab.MiceCDF(24)), nil
}

// fingerprint condenses the simulated output — every Summary field and
// the 24-point mice FCT CDF — into a 64-bit hash.
func fingerprint(sum negotiator.Summary, cdf string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%s", sum, cdf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// check validates a repetition's output: the round count and byte
// accounting must be consistent, and the fingerprint must equal the
// recorded golden (or, for an unrecorded seed, the instance's first
// repetition in this run).
func (b *bench) check(seed int64, sum negotiator.Summary, fp string) error {
	rounds := int64(b.w.warmup + b.w.span)
	switch {
	case sum.Epochs != rounds:
		return b.fail(seed, fmt.Errorf("simulated %d rounds, want %d", sum.Epochs, rounds))
	case sum.Delivered <= 0 || sum.Delivered+sum.LostBytes > sum.Injected:
		return b.fail(seed, fmt.Errorf("byte accounting: injected %d delivered %d lost %d", sum.Injected, sum.Delivered, sum.LostBytes))
	}
	key := fmt.Sprintf("%s/%d", b.w.name, seed)
	want, ok := b.golden[key]
	if !ok {
		if b.seen == nil {
			b.seen = make(map[int64]string)
		}
		if want, ok = b.seen[seed]; !ok {
			b.seen[seed] = fp
			return nil
		}
	}
	if fp != want {
		return b.fail(seed, fmt.Errorf("fingerprint %s, want %s", fp, want))
	}
	return nil
}

// fail records a failed repetition.
func (b *bench) fail(seed int64, err error) error {
	b.failures++
	err = fmt.Errorf("%s seed %d: %w", b.w.name, seed, err)
	fmt.Fprintln(b.log, "FAIL", err)
	return err
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	return median(ys)
}

func parseGoldens(text string) (map[string]string, error) {
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, fp, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed golden line %q", line)
		}
		out[key] = fp
	}
	return out, nil
}

// recordGoldens prints the fingerprint of every instance of seeds [0, n)
// of every workload, in fingerprints.golden format.
func recordGoldens(out io.Writer, n int) error {
	for _, w := range workloads(false) {
		b := bench{w: w, log: io.Discard}
		for seed := int64(0); seed < int64(n); seed++ {
			for k := 0; k < instancesPerSeed; k++ {
				is := instanceSeed(seed, k)
				fab, err := b.setup(w.instance(is))
				if err != nil {
					return err
				}
				sum, cdf, err := b.span(fab)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%s/%d %s\n", w.name, is, fingerprint(sum, cdf))
			}
		}
	}
	return nil
}
