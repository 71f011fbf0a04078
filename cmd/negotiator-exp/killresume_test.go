package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestKillAndResume is the crash-safety acceptance test, end to end
// through the real binary: a durable sweep is SIGKILLed mid-flight (no
// deferred cleanup runs, exactly like an OOM kill or a preempted node),
// then rerun with -resume. The resumed invocation must salvage the
// completed cells and emit output byte-identical to an uninterrupted
// sweep, modulo the wall-time lines that are wall-clock by design.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a subprocess")
	}
	bin, dir := buildBinary(t), t.TempDir()

	// 25ms simulated keeps each of table2's 8 cells slow enough (~200ms
	// wall) that the kill lands mid-sweep, and the whole test under ~10s.
	args := []string{"-exp", "table2", "-tors", "32", "-duration", "25ms", "-parallel", "1", "-seed", "3"}
	ref, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	state := filepath.Join(dir, "state")
	killed := exec.Command(bin, append(args, "-state-dir", state)...)
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the manifest records two completed cells (signature
	// line + 2), so the sweep is provably mid-flight with salvage on disk.
	manifest := filepath.Join(state, "table2", "manifest")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(manifest); err == nil && bytes.Count(raw, []byte("\n")) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			killed.Process.Kill()
			killed.Wait()
			t.Fatal("no cells completed within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := killed.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := killed.Wait(); err == nil {
		t.Fatal("sweep finished before it could be killed; increase -duration")
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest unreadable after SIGKILL: %v", err)
	}
	salvaged := bytes.Count(raw, []byte("\n")) - 1
	if salvaged < 1 {
		t.Fatalf("no cells salvaged (manifest:\n%s)", raw)
	}
	t.Logf("killed with %d of 8 cells salvaged", salvaged)

	resumed, err := exec.Command(bin, append(args, "-state-dir", state, "-resume")...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got, want := stripWallTime(resumed), stripWallTime(ref); got != want {
		t.Errorf("resumed output differs from uninterrupted run\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// stripWallTime drops the lines that report wall-clock measurements; all
// remaining bytes are deterministic.
func stripWallTime(out []byte) string {
	var keep []string
	for _, ln := range strings.Split(string(out), "\n") {
		if strings.Contains(ln, "wall time") {
			continue
		}
		keep = append(keep, ln)
	}
	return strings.Join(keep, "\n")
}
