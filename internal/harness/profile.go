package harness

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling when -cpuprofile was given. Both files feed
// `go tool pprof` directly; they profile the command itself (the Go
// process), not the simulated machine — for simulated-cycle attribution
// use -stalls/-trace. Start must be paired with a deferred Stop, so a
// command returns its exit status rather than calling os.Exit, which
// skips deferred calls and would leave an empty CPU profile.
func (f *Flags) Start() error {
	if f.CPUProfile == "" {
		return nil
	}
	file, err := os.Create(f.CPUProfile)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop finishes the CPU profile and writes the heap profile, as
// requested. It is idempotent so error paths and the normal exit can
// both call it.
func (f *Flags) Stop() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		err := f.cpuFile.Close()
		f.cpuFile = nil
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if f.MemProfile != "" {
		file, err := os.Create(f.MemProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer file.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(file); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		f.MemProfile = "" // idempotence: write once
	}
	return nil
}
