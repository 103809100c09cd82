package core_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
)

// raceDetector is set when the tests run under -race.
var raceDetector bool

// TestClassifyRetainsBoundedHeap sends large, distinct documents
// through ClassifyDoc, the call `tdc serve` makes for each request, and
// requires the model to keep at most a fixed budget of them alive.
// Each document holds 100,000 member words and would still fit a
// 1 MiB request body. Encoding one builds, per category, slices sized
// to its member words; a cache that kept each of them would retain tens
// of megabytes per request.
func TestClassifyRetainsBoundedHeap(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("encodes several 100,000-word documents")
	}
	const (
		docs     = 4
		words    = 100_000
		budget   = 32 << 20 // what the model may retain across requests
		bodySize = 1 << 20  // serving's default request body limit
		// One document's encoding, at most: three slices per category
		// sized to its member words, here up to all of them (input
		// headers 24 B, word headers 16 B, positions 8 B), plus one
		// two-float input per member word.
		perWordCat = 24 + 16 + 8 + 16
	)
	m := smokeModel(t, featsel.DF)
	cats := m.Categories()
	seen := make(map[string]bool)
	var members []string
	for _, cat := range cats {
		var vocab []string
		for w := range m.Keep(cat) {
			vocab = append(vocab, w)
		}
		sort.Strings(vocab)
		codes, err := m.Encoder().Encode(cat, vocab)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range codes {
			if code.Member && !seen[code.Word] {
				seen[code.Word] = true
				members = append(members, code.Word)
			}
		}
	}
	sort.Strings(members)
	if len(members) == 0 {
		t.Fatal("model has no member words")
	}
	batch := make([]corpus.Document, docs)
	for d := range batch {
		ws := make([]string, words)
		size := 0
		for i := range ws {
			ws[i] = members[(i+d)%len(members)]
			size += len(ws[i]) + 1
		}
		if size >= bodySize {
			t.Fatalf("document text is %d bytes, over the %d-byte body limit", size, bodySize)
		}
		batch[d] = corpus.Document{ID: fmt.Sprintf("large-%d", d), Words: ws}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := make([]core.Prediction, 0, len(cats))
	for d := range batch {
		var err error
		if out, err = m.ClassifyDoc(&batch[d], out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(batch)

	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(budget + len(cats)*words*perWordCat)
	t.Logf("live heap grew %.1f MB over %d documents (limit %.1f MB)", float64(grown)/1e6, docs, float64(limit)/1e6)
	if grown >= limit {
		t.Errorf("live heap grew %d bytes after %d documents; want < %d (budget plus one document's encoding)", grown, docs, limit)
	}
}
