package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at its tiny size, untraced and traced,
// and checks that the result line carries exactly the metric names and
// units BENCHMARK.json declares, with no failed repetition. A traced
// repetition must reproduce the fingerprint of the untraced repetition of
// the same instance, so a zero failure count also shows that stepping one
// round at a time simulates the same thing.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads(true) {
		have = append(have, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, w := range workloads(true) {
		for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				b := bench{w: w, seed: 1, log: io.Discard}
				res := b.untraced()
				if trace == 1 {
					res = b.traced()
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct=%v failed/attempted %d/%d", got.Correct, got.Failed, got.Attempted)
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got.Metrics), len(want))
				}
			})
		}
	}
}

// TestGoldensCoverDefaultSeed checks that every instance of the default
// seed has a recorded fingerprint, so a default run is checked against
// recorded output rather than only against itself.
func TestGoldensCoverDefaultSeed(t *testing.T) {
	golden, err := parseGoldens(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(false) {
		for k := 0; k < instancesPerSeed; k++ {
			if key := fmt.Sprintf("%s/%d", w.name, instanceSeed(1, k)); golden[key] == "" {
				t.Errorf("no golden fingerprint for %s", key)
			}
		}
	}
}
