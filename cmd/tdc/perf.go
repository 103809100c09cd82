package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// perfFlags bundles the profiling flags shared by the training and
// evaluation subcommands: -cpuprofile / -memprofile hook the subcommand
// up to pprof. GOMAXPROCS sets how many cores training and evaluation
// use; their output is bit-identical for every value.
type perfFlags struct {
	cpuProfile *string
	memProfile *string
}

func registerPerfFlags(fs *flag.FlagSet) *perfFlags {
	return &perfFlags{
		cpuProfile: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// apply starts CPU profiling when requested. The returned stop function
// ends the CPU profile and writes the heap profile; call it via defer.
func (pf *perfFlags) apply() (stop func(), err error) {
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
