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
	bin := filepath.Join(t.TempDir(), "negotiator-exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building negotiator-exp: %v\n%s", err, out)
	}
	return bin
}

// TestFlowGroupUsage pins the -flow-group validation contract: every
// experiment cell replays trace-driven arrivals, so any factor above 1 is a
// usage error (grouping pairwise-distinct arrivals would multiply offered
// load, not aggregate identical flows), as is any factor below 1. Both exit
// 2 with a diagnostic; the identity factor is accepted.
func TestFlowGroupUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin := buildBinary(t)

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"below-one", []string{"-flow-group", "0", "-exp", "table2"}, "-flow-group must be >= 1"},
		{"trace-driven", []string{"-flow-group", "2", "-exp", "table2"}, "coalescible"},
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

	if out, err := exec.Command(bin, "-flow-group", "1", "-list").CombinedOutput(); err != nil {
		t.Fatalf("-flow-group 1 should be accepted: %v\n%s", err, out)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a non-empty
// pprof file for a short sweep, and an unwritable path fails the sweep
// before it starts.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	bin, dir := buildBinary(t), t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, err := exec.Command(bin, "-exp", "fig9", "-quick", "-tors", "16", "-duration", "200us",
		"-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("profiled sweep failed: %v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err %v)", filepath.Base(p), err)
		}
	}
	missing := filepath.Join(dir, "missing", "mem.prof")
	if out, err := exec.Command(bin, "-exp", "fig9", "-quick", "-tors", "16", "-duration", "200us",
		"-memprofile", missing).CombinedOutput(); err == nil {
		t.Errorf("unwritable -memprofile path accepted:\n%s", out)
	}
}
