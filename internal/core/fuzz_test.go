package core

import (
	"bytes"
	"fmt"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
)

// tinySnapshot trains the smallest model that still runs every stage —
// two categories, a 3×3 char map, 2×2 word maps, a few dozen
// tournaments — and returns its saved bytes: a seed small enough for
// the fuzzer to mutate quickly.
func tinySnapshot(t testing.TB) []byte {
	t.Helper()
	vocab := map[string][]string{
		"grain": {"wheat", "harvest", "tonnes", "crop", "export"},
		"earn":  {"profit", "dividend", "quarter", "shares", "net"},
	}
	c := &corpus.Corpus{Categories: []string{"earn", "grain"}}
	for i := 0; i < 8; i++ {
		cat := c.Categories[i%2]
		words := vocab[cat]
		d := corpus.Document{
			ID:         fmt.Sprintf("d%d", i),
			Words:      []string{words[i%5], words[(i+1)%5], words[(i+3)%5], "the", "market"},
			Categories: []string{cat},
		}
		if i < 6 {
			c.Train = append(c.Train, d)
		} else {
			c.Test = append(c.Test, d)
		}
	}
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 8
	gp.Tournaments = 40
	gp.MaxPages = 2
	gp.MaxPageSize = 2
	gp.DSS = nil
	m, err := Train(Config{
		FeatureMethod: featsel.DF,
		FeatureConfig: featsel.Config{GlobalN: 12},
		Encoder: hsom.Config{
			CharWidth: 3, CharHeight: 3,
			WordWidth: 2, WordHeight: 2,
			CharEpochs: 1, WordEpochs: 1,
			BMUFanout: 3,
			Seed:      2,
		},
		GP:   gp,
		Seed: 1,
	}, c)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad drives Load — the trust boundary for snapshot bytes that
// `tdc publish` and a registry scan admit from disk — with mutations of
// a tiny trained snapshot and of the corruptions that once crashed
// serving. Load may reject any input, but whatever it accepts must
// classify a fixed document without panicking: a snapshot that loads
// is a snapshot that serves.
func FuzzLoad(f *testing.F) {
	good := tinySnapshot(f)
	f.Add(good)
	for _, c := range corruptSnapshots(f, good) {
		f.Add(c.data)
	}
	doc := corpus.Document{
		ID:    "fuzz",
		Words: []string{"wheat", "profit", "unseen", "the", "dividend", "harvest", "supercalifragilisticexpialidocious"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := m.ClassifyDoc(&doc, nil); err != nil {
			t.Fatalf("Load accepted a snapshot ClassifyDoc rejects: %v", err)
		}
	})
}
