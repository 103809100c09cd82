package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"temporaldoc/internal/experiments"
)

// perfFlags bundles the performance flags shared by the training and
// evaluation subcommands: -workers bounds the evaluation engine's
// parallelism (GP tournament evaluation, concurrent category word-map
// training, document scoring), and -cpuprofile / -memprofile hook the
// subcommand up to pprof. Training output is bit-identical for every
// -workers value.
type perfFlags struct {
	workers    *int
	cpuProfile *string
	memProfile *string
}

func registerPerfFlags(fs *flag.FlagSet) *perfFlags {
	return &perfFlags{
		workers:    fs.Int("workers", 0, "evaluation workers (0 = all CPUs); output is identical for any value"),
		cpuProfile: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// apply threads -workers into the experiment profile and starts CPU
// profiling when requested. The returned stop function ends the CPU
// profile and writes the heap profile; call it via defer.
func (pf *perfFlags) apply(p *experiments.Profile) (stop func(), err error) {
	if *pf.workers < 0 {
		return nil, fmt.Errorf("-workers %d must be >= 0", *pf.workers)
	}
	p.Workers = *pf.workers
	var cpuOut *os.File
	if *pf.cpuProfile != "" {
		cpuOut, err = os.Create(*pf.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			_ = cpuOut.Close()
			return nil, err
		}
	}
	memPath := *pf.memProfile
	return func() {
		if cpuOut != nil {
			pprof.StopCPUProfile()
			if err := cpuOut.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tdc: close cpu profile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tdc: create heap profile %s: %v\n", memPath, err)
				return
			}
			runtime.GC() // flush recent frees so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				_ = f.Close()
				fmt.Fprintf(os.Stderr, "tdc: write heap profile %s: %v\n", memPath, err)
				return
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tdc: close heap profile %s: %v\n", memPath, err)
			}
		}
	}, nil
}
