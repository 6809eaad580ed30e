// Package profiling wires the standard -cpuprofile/-memprofile flags —
// plus -blockprofile/-mutexprofile for scheduler-contention diagnosis —
// into the campaign CLIs, so hot-path regressions can be diagnosed with
// `go tool pprof` against a real full-study run rather than a
// microbenchmark. See DESIGN.md ("Performance model") for the workflow.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config names the profile output paths. Empty paths disable the
// corresponding profile.
type Config struct {
	CPUProfile string
	MemProfile string
	// BlockProfile and MutexProfile capture goroutine blocking and
	// mutex contention over the whole run (rate/fraction 1 — full
	// sampling; these runs are for diagnosis, not production). Useful
	// alongside the flight recorder's steal/commit-wait counters: the
	// counters say the executor stalled, the profiles say on which lock.
	BlockProfile string
	MutexProfile string
}

// Start begins CPU profiling (if CPUProfile is set) and enables block/
// mutex sampling (if their paths are set). The returned stop function
// ends the CPU profile, writes the block, mutex, and allocation
// profiles, and restores the sampling rates; it is safe to call exactly
// once. Every path may be empty.
func Start(cfg Config) (stop func(), err error) {
	var cpuFile *os.File
	if cfg.CPUProfile != "" {
		cpuFile, err = os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	if cfg.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if cfg.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if cfg.BlockProfile != "" {
			writeProfile("block", cfg.BlockProfile)
			runtime.SetBlockProfileRate(0)
		}
		if cfg.MutexProfile != "" {
			writeProfile("mutex", cfg.MutexProfile)
			runtime.SetMutexProfileFraction(0)
		}
		if cfg.MemProfile != "" {
			// Materialize up-to-date allocation stats before snapshotting.
			runtime.GC()
			writeProfile("allocs", cfg.MemProfile)
		}
	}, nil
}

// writeProfile snapshots a named runtime profile to path, reporting
// (not propagating) errors: a failed diagnostic write must not fail the
// campaign whose results are already in hand.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
	}
}
