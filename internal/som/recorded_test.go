package som

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
)

// snapshotDigest is the sha256 of the map's snapshot JSON: every
// weight plus the per-epoch AWC.
func snapshotDigest(t *testing.T, m *Map) string {
	t.Helper()
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// wordStream returns n word-map training inputs drawn from a vocabulary
// of vocab sparse 91-dimensional vectors. Repeated words share one
// slice, as hsom's word vectors do.
func wordStream(rng *rand.Rand, vocab, n int) [][]float64 {
	words := make([][]float64, vocab)
	for i := range words {
		idx, val := randSparse(rng)
		words[i] = denseFromSparse(91, idx, val)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = words[rng.Intn(vocab)]
	}
	return out
}

// TestTrainRecordedBits pins Train to snapshot digests recorded before
// the neighbourhood weight was memoised per grid distance: a 7×13
// char-map-shaped fit over two-dimensional inputs and an 8×8
// word-map-shaped fit over shared sparse 91-dimensional inputs, both
// with the paper's settings (no shuffling). Any change to the update
// arithmetic or its order shows up as a digest change.
//
// The digests are platform arithmetic: other architectures may fuse
// multiply-adds, so the test runs on amd64 only. A change that moves
// the weights on purpose must re-record them and say why.
func TestTrainRecordedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64")
	}
	rng := rand.New(rand.NewSource(23))
	chars := make([][]float64, 600)
	for i := range chars {
		chars[i] = []float64{float64(1 + rng.Intn(26)), float64(1 + rng.Intn(12))}
	}
	cases := []struct {
		name   string
		cfg    Config
		scale  float64
		inputs [][]float64
		want   string
	}{
		{"char-7x13", Config{
			Width: 7, Height: 13, Dim: 2, Epochs: 2,
			InitialLearningRate: 0.5, Seed: 2,
		}, 26, chars, "cc28f5ff0cd58983493ada9b31e2c0ed68f42fd5e83853a61e9eb19ad6c11929"},
		{"word-8x8", Config{
			Width: 8, Height: 8, Dim: 91, Epochs: 4,
			InitialLearningRate: 0.3, Seed: 3,
		}, 3, wordStream(rng, 40, 300), "fdd4351d2f9829ea7dc11e322b13b5daf860d88f22e0422b9b3a471042ed0ca9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Train(tc.inputs); err != nil {
				t.Fatal(err)
			}
			if got := snapshotDigest(t, m); got != tc.want {
				t.Errorf("digest %s, recorded %s", got, tc.want)
			}
		})
	}
}
