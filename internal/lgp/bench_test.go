package lgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchExamples builds a training set shaped like the paper's workload:
// n documents of w-word sequences over 2-dimensional word codes.
func benchExamples(n, w int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		seq := make([][]float64, w)
		for j := range seq {
			seq[j] = []float64{rng.Float64(), rng.Float64()}
		}
		label := -1.0
		if i%2 == 0 {
			label = 1
		}
		out[i] = Example{Inputs: seq, Label: label}
	}
	return out
}

func benchTrainer(b *testing.B) *Trainer {
	b.Helper()
	cfg := DefaultConfig()
	cfg.PopulationSize = 32
	cfg.Tournaments = 10
	cfg.DSS = nil
	cfg.Seed = 7
	tr, err := NewTrainer(cfg, benchExamples(40, 30, 3))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTournament times one tournament with its evaluations on one
// machine per GOMAXPROCS.
func BenchmarkTournament(b *testing.B) {
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr := benchTrainer(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.tournament()
			}
		})
	}
}

// BenchmarkTrainerRun times a whole run at the quick profile's GP
// shape: population 30, DSS subsets of 40 redrawn every 50 tournaments,
// four subsets in all. Unlike BenchmarkTournament it covers the DSS
// path, where contestants and the difficulty update reuse the outputs
// an unchanged program scored on the unchanged subset. It runs serially
// (GOMAXPROCS 1).
func BenchmarkTrainerRun(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	cfg.PopulationSize = 30
	cfg.Tournaments = 200
	cfg.DSS = &DSSConfig{SubsetSize: 40, Interval: 50}
	cfg.Seed = 7
	examples := benchExamples(100, 8, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := NewTrainer(cfg, examples)
		if err != nil {
			b.Fatal(err)
		}
		tr.Run()
	}
}

// benchTraceSink keeps the compiler from eliding the Trace callback.
var benchTraceSink TournamentStats

// BenchmarkTournamentTrace measures Run with and without the
// per-tournament Trace hook. Trace is read-only, so both variants do
// identical evolutionary work; the delta is the telemetry overhead
// recorded in BENCH_PR2.json (<5% target).
func BenchmarkTournamentTrace(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "trace=off"
		if traced {
			name = "trace=on"
		}
		b.Run(name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			cfg := DefaultConfig()
			cfg.PopulationSize = 32
			cfg.Tournaments = 10
			cfg.DSS = nil
			cfg.Seed = 7
			if traced {
				cfg.Trace = func(s TournamentStats) { benchTraceSink = s }
			}
			tr, err := NewTrainer(cfg, benchExamples(40, 30, 3))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Run()
			}
		})
	}
}

func BenchmarkRunSequence(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PopulationSize = 4
	cfg.Tournaments = 1
	cfg.DSS = nil
	tr, err := NewTrainer(cfg, benchExamples(4, 10, 1))
	if err != nil {
		b.Fatal(err)
	}
	p := tr.pop[0]
	m := NewMachine(cfg.NumRegisters)
	seq := benchExamples(1, 50, 2)[0].Inputs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunSequence(p, seq)
	}
}
