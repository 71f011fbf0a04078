// Package prof backs the commands' -cpuprofile and -memprofile flags with
// runtime/pprof, so a slow or memory-hungry run can explain itself with
// `go tool pprof` and no extra harness.
package prof

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start opens the profile files and starts the CPU profile. An empty path
// disables that profile. The returned stop ends the CPU profile and writes
// the allocation profile (allocated and in-use samples, after a GC); call
// it once, when the work to profile is done. Both files are created up
// front, so a bad path fails before any work runs.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	defer func() {
		if err != nil {
			for _, f := range []*os.File{cpu, mem} {
				if f != nil {
					f.Close()
				}
			}
		}
	}()
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC()
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
