package lgp

import (
	"reflect"
	"runtime"
	"testing"
)

// runWithProcs trains a small population under the given GOMAXPROCS,
// which sets the trainer's worker count, and returns the full result.
// Everything else — seed, examples, schedule — is held fixed.
func runWithProcs(t *testing.T, procs int) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := DefaultConfig()
	cfg.PopulationSize = 24
	cfg.Tournaments = 120
	cfg.DSS = &DSSConfig{SubsetSize: 16, Interval: 20}
	cfg.Seed = 42
	tr, err := NewTrainer(cfg, benchExamples(32, 12, 9))
	if err != nil {
		t.Fatalf("NewTrainer(GOMAXPROCS=%d): %v", procs, err)
	}
	return tr.Run()
}

// TestRunDeterministicAcrossWorkers is the regression test for the
// parallel evaluation engine: every worker count (one per GOMAXPROCS)
// must yield the exact model and fitness trajectory the serial path
// (GOMAXPROCS 1) yields, bit for bit. The engine guarantees this by
// drawing all RNG values before fanning out and keeping the fanned-out
// work pure.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	want := runWithProcs(t, 1)
	for _, workers := range []int{2, 3, 4, runtime.GOMAXPROCS(0)} {
		got := runWithProcs(t, workers)
		if got.Fitness != want.Fitness {
			t.Errorf("workers=%d: final fitness %v, serial %v", workers, got.Fitness, want.Fitness)
		}
		if !reflect.DeepEqual(got.Best.Code, want.Best.Code) {
			t.Errorf("workers=%d: best program differs from serial run", workers)
		}
		if !reflect.DeepEqual(got.BestHistory, want.BestHistory) {
			t.Errorf("workers=%d: fitness trajectory differs from serial run", workers)
		}
		if !reflect.DeepEqual(got.PageSizeHistory, want.PageSizeHistory) {
			t.Errorf("workers=%d: page-size schedule differs from serial run", workers)
		}
	}
}
