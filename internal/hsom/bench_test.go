package hsom

import (
	"fmt"
	"math/rand"
	"testing"

	"temporaldoc/internal/corpus"
)

// benchEncoder trains a paper-geometry encoder (7×13 char map, 8×8 word
// maps) over a synthetic vocabulary so benchmark inputs look like the
// real workload rather than the tiny test fixture.
func benchEncoder(b *testing.B) (*Encoder, []string) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	vocab := make([]string, 400)
	for i := range vocab {
		n := 3 + rng.Intn(9)
		w := make([]byte, n)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(w)
	}
	docs := benchDocs(rng, vocab)
	cfg := DefaultConfig()
	cfg.CharEpochs, cfg.WordEpochs = 2, 3 // enough to spread the maps
	enc, err := Train(cfg, docs)
	if err != nil {
		b.Fatal(err)
	}
	return enc, vocab
}

// BenchmarkWordVectorCold measures the cold-word path — the PR-6
// headline number. "table" reads the precomputed fanout; "legacy" is
// the pre-table live NearestK per character (the fallback path, still
// the same code the table was built from).
func BenchmarkWordVectorCold(b *testing.B) {
	enc, vocab := benchEncoder(b)
	fan := enc.fan
	for _, bc := range []struct {
		name string
		fan  *fanoutTable
	}{{"table", fan}, {"legacy", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			enc.fan = bc.fan
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(vocab) == 0 {
					b.StopTimer()
					enc.ClearWordCache()
					b.StartTimer()
				}
				enc.WordVector(vocab[i%len(vocab)])
			}
		})
	}
	enc.fan = fan
}

// BenchmarkEncodeDocument measures steady-state full-document encoding
// (warm word cache) under each level-2 kernel, plus the dense reference
// encoder (denseEncode; BENCH_PR6.json's kernel=legacy row).
func BenchmarkEncodeDocument(b *testing.B) {
	enc, vocab := benchEncoder(b)
	rng := rand.New(rand.NewSource(9))
	doc := make([]string, 200)
	for i := range doc {
		doc[i] = vocab[rng.Intn(len(vocab))]
	}
	cat := enc.Categories()[0]
	b.Run("kernel=dense", func(b *testing.B) {
		denseEncode(enc, cat, doc) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			denseEncode(enc, cat, doc)
		}
	})
	for _, k := range []Kernel{KernelFloat64, KernelFloat32} {
		b.Run(fmt.Sprintf("kernel=%s", k), func(b *testing.B) {
			if err := enc.SetKernel(k); err != nil {
				b.Fatal(err)
			}
			if _, err := enc.Encode(cat, doc); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(cat, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchDocs(rng *rand.Rand, vocab []string) map[string][]corpus.Document {
	out := make(map[string][]corpus.Document)
	for _, cat := range []string{"earn", "grain"} {
		docs := make([]corpus.Document, 4)
		for d := range docs {
			words := make([]string, 60)
			for i := range words {
				words[i] = vocab[rng.Intn(len(vocab))]
			}
			docs[d] = corpus.Document{
				ID:         fmt.Sprintf("%s-%d", cat, d),
				Words:      words,
				Categories: []string{cat},
			}
		}
		out[cat] = docs
	}
	return out
}
