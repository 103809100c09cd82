package core

import (
	"sort"
	"testing"

	"temporaldoc/internal/corpus"
)

// TestEncodeSizesToMembers encodes a document made mostly of kept words
// that are not member words. encode keeps only member words, and the
// encode cache holds its slices at their capacity, so all three must be
// sized to the members alone.
func TestEncodeSizesToMembers(t *testing.T) {
	m, _ := trainedModel(t)
	for _, cat := range m.Categories() {
		var vocab []string
		for w := range m.Keep(cat) {
			vocab = append(vocab, w)
		}
		sort.Strings(vocab)
		codes, err := m.encoder.Encode(cat, vocab)
		if err != nil {
			t.Fatal(err)
		}
		var members, others []string
		for _, code := range codes {
			if code.Member {
				members = append(members, code.Word)
			} else {
				others = append(others, code.Word)
			}
		}
		if len(members) == 0 || len(others) == 0 {
			continue
		}
		// Ten kept non-member words for every member word.
		var words []string
		want := 0
		for i := 0; i < 1100; i++ {
			if i%11 == 0 {
				words = append(words, members[i%len(members)])
				want++
				continue
			}
			words = append(words, others[i%len(others)])
		}
		inputs, got, positions, err := m.encode(cat, &corpus.Document{ID: "sizing", Words: words})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			name     string
			len, cap int
		}{
			{"inputs", len(inputs), cap(inputs)},
			{"words", len(got), cap(got)},
			{"positions", len(positions), cap(positions)},
		} {
			if s.len != want || s.cap != want {
				t.Errorf("%s: %s has len %d, cap %d; want both %d (the member words)", cat, s.name, s.len, s.cap, want)
			}
		}
		return
	}
	t.Fatal("no category keeps both member and non-member words")
}
