package som

import (
	"math/rand"
	"testing"
)

// benchMap builds a trained-shape map and input set matching the paper's
// word-SOM workload: an 8x8 grid over 91-dimensional word vectors.
func benchMap(b *testing.B, n int) (*Map, [][]float64) {
	b.Helper()
	m, err := New(Config{
		Width: 8, Height: 8, Dim: 91, Epochs: 1,
		InitialLearningRate: 0.3, Seed: 1,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	inputs := make([][]float64, n)
	for i := range inputs {
		v := make([]float64, 91)
		for d := range v {
			v[d] = rng.Float64() * 3
		}
		inputs[i] = v
	}
	return m, inputs
}

func BenchmarkBMU(b *testing.B) {
	m, inputs := benchMap(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BMU(inputs[i%len(inputs)])
	}
}

// BenchmarkBMUSparse compares the dense level-2 sweep against the
// sparse kernel on word-vector-shaped inputs (~3×wordlen non-zeros of
// 91 dims) — the PR-6 encode-kernel numbers in BENCH_PR6.json.
func BenchmarkBMUSparse(b *testing.B) {
	m, idxs, vals := sparseFixture(b, 256)
	dense := make([][]float64, len(idxs))
	for i := range idxs {
		dense[i] = denseFromSparse(91, idxs[i], vals[i])
	}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.BMU(dense[i%len(dense)])
		}
	})
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(idxs)
			m.BMUSparse(idxs[j], vals[j])
		}
	})
}

// BenchmarkTrainEpoch times one training epoch of each level's map
// shape: the 7×13 character map over two-dimensional inputs, and an
// 8×8 word map over word-vector-shaped sparse 91-dimensional inputs in
// which repeated words share one slice, as in hsom.
func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	chars := make([][]float64, 2000)
	for i := range chars {
		chars[i] = []float64{1 + rng.Float64()*25, 1 + rng.Float64()*24}
	}
	cases := []struct {
		name   string
		cfg    Config
		scale  float64
		inputs [][]float64
	}{
		{"char-7x13", Config{Width: 7, Height: 13, Dim: 2, Epochs: 1, InitialLearningRate: 0.5}, 26, chars},
		{"word-8x8", Config{Width: 8, Height: 8, Dim: 91, Epochs: 1, InitialLearningRate: 0.3}, 3, wordStream(rng, 150, 2000)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := tc.cfg
				cfg.Seed = int64(i)
				m, err := New(cfg, tc.scale)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Train(tc.inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
