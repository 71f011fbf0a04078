package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary builds the command into a test temp dir and returns its path.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "negotiator-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building negotiator-sim: %v\n%s", err, out)
	}
	return bin
}

// TestFlowGroupUsage pins the -flow-group validation contract through the
// real binary: a factor below 1 is always malformed, and a factor above 1
// is rejected here because this command's only workload is trace-driven
// (pairwise-distinct arrivals cannot coalesce into groups). Both are usage
// errors and must exit 2 with a diagnostic, matching the fatalUsagef
// convention; a factor of exactly 1 must be accepted.
func TestFlowGroupUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin := buildBinary(t)

	for _, tc := range []struct {
		name string
		args []string
		want string // stderr substring; exit code must be 2
	}{
		{"below-one", []string{"-flow-group", "0"}, "-flow-group must be >= 1"},
		{"trace-driven", []string{"-flow-group", "4"}, "coalescible"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v\n%s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("exit code = %d, want 2\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}

	// The identity factor must run: a 4-ToR, short simulation.
	out, err := exec.Command(bin, "-flow-group", "1", "-tors", "4", "-ports", "2",
		"-duration", "100us").CombinedOutput()
	if err != nil {
		t.Fatalf("-flow-group 1 should be accepted: %v\n%s", err, out)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a non-empty
// pprof file for a short run, and an unwritable path fails the run before
// it starts.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin, dir := buildBinary(t), t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, err := exec.Command(bin, "-tors", "4", "-ports", "2", "-duration", "100us",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("profiled run failed: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err %v)", filepath.Base(p), err)
		}
	}
	missing := filepath.Join(dir, "missing", "cpu.prof")
	if out, err := exec.Command(bin, "-tors", "4", "-ports", "2", "-duration", "100us",
		"-cpuprofile", missing).CombinedOutput(); err == nil {
		t.Errorf("unwritable -cpuprofile path accepted:\n%s", out)
	}
}
