package hsom

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestEncoderSnapshotRoundTrip(t *testing.T) {
	enc := trainedEncoder(t)
	snap := enc.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	enc2, err := FromSnapshot(back)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if !reflect.DeepEqual(enc2.Categories(), enc.Categories()) {
		t.Fatalf("categories differ: %v vs %v", enc2.Categories(), enc.Categories())
	}
	words := []string{"profit", "dividend", "wheat", "unseen"}
	for _, cat := range enc.Categories() {
		a, err := enc.Encode(cat, words)
		if err != nil {
			t.Fatal(err)
		}
		b, err := enc2.Encode(cat, words)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("category %s encodes differently after round trip", cat)
		}
		if !reflect.DeepEqual(enc.Category(cat).SelectedBMUs(), enc2.Category(cat).SelectedBMUs()) {
			t.Fatalf("category %s selected BMUs differ", cat)
		}
		if !reflect.DeepEqual(enc.Category(cat).Hits(), enc2.Category(cat).Hits()) {
			t.Fatalf("category %s hits differ", cat)
		}
	}
	// Word vectors must match exactly (same char map).
	if !reflect.DeepEqual(enc.WordVector("profit"), enc2.WordVector("profit")) {
		t.Error("word vectors differ after round trip")
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	enc := trainedEncoder(t)
	good := enc.Snapshot()

	mangle := func(f func(*Snapshot)) Snapshot {
		data, _ := json.Marshal(good)
		var s Snapshot
		_ = json.Unmarshal(data, &s)
		f(&s)
		return s
	}

	cases := []struct {
		name string
		snap Snapshot
	}{
		{"empty category name", mangle(func(s *Snapshot) { s.Categories[0].Category = "" })},
		{"duplicate category", mangle(func(s *Snapshot) { s.Categories[1].Category = s.Categories[0].Category })},
		{"selected out of range", mangle(func(s *Snapshot) { s.Categories[0].Selected[0] = 999 })},
		{"gaussian out of range", mangle(func(s *Snapshot) { s.Categories[0].Gauss[0].Unit = 999 })},
		{"gaussian wrong dim", mangle(func(s *Snapshot) { s.Categories[0].Gauss[0].Mean = []float64{1} })},
		{"hits wrong length", mangle(func(s *Snapshot) { s.Categories[0].Hits = s.Categories[0].Hits[:1] })},
		{"bad char map", mangle(func(s *Snapshot) { s.CharMap.Weights = nil })},
		{"char map dim 1", mangle(func(s *Snapshot) {
			s.CharMap.Config.Dim = 1
			for u, w := range s.CharMap.Weights {
				s.CharMap.Weights[u] = w[:1]
			}
		})},
		{"word map dim differs from char units", mangle(func(s *Snapshot) {
			m := &s.Categories[0].Map
			m.Config.Dim--
			for u, w := range m.Weights {
				m.Weights[u] = w[:m.Config.Dim]
			}
		})},
	}
	for _, tc := range cases {
		if _, err := FromSnapshot(tc.snap); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
