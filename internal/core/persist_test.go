package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, c := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	saved := buf.Bytes()
	loaded, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Save → load → save reproduces the bytes: derived state (the
	// fanout table, the word cache) never reaches a snapshot, so files
	// written by earlier builds load and re-save unchanged.
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	if !bytes.Equal(saved, resaved.Bytes()) {
		t.Fatal("save → load → save changed snapshot bytes")
	}
	if !reflect.DeepEqual(loaded.Categories(), m.Categories()) {
		t.Fatalf("categories changed: %v vs %v", loaded.Categories(), m.Categories())
	}
	// Loaded model must classify identically.
	for i := range c.Test[:25] {
		want, err := m.Classify(&c.Test[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Classify(&c.Test[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: loaded %v != original %v", i, got, want)
		}
	}
	// Scores must match exactly (same encoder, same programs).
	for _, cat := range m.Categories() {
		a, _ := m.Score(cat, &c.Test[0])
		b, _ := loaded.Score(cat, &c.Test[0])
		if a != b {
			t.Fatalf("category %s: score %v != %v", cat, a, b)
		}
		if loaded.CategoryModelFor(cat).Threshold != m.CategoryModelFor(cat).Threshold {
			t.Fatalf("category %s: threshold changed", cat)
		}
	}
	// Traces must match.
	ta, err := m.Trace("earn", &c.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	tb, err := loaded.Trace("earn", &c.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("traces differ after round trip")
	}
}

func TestModelSaveLoadPreservesSelection(t *testing.T) {
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Selection() == nil {
		t.Fatal("selection lost")
	}
	if loaded.Selection().Method != m.Selection().Method {
		t.Error("selection method changed")
	}
	if !reflect.DeepEqual(loaded.Keep("earn"), m.Keep("earn")) {
		t.Error("keep-set changed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{}`)); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestReadSnapshotHeader(t *testing.T) {
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadSnapshotHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshotHeader: %v", err)
	}
	if h.Version != snapshotVersion {
		t.Errorf("header version %d, want %d", h.Version, snapshotVersion)
	}
	if h.FeatureMethod != m.FeatureMethod() {
		t.Errorf("header method %q, want %q", h.FeatureMethod, m.FeatureMethod())
	}
	if !reflect.DeepEqual(h.Categories, m.Categories()) {
		t.Errorf("header categories %v, want %v", h.Categories, m.Categories())
	}
}

func TestReadSnapshotHeaderRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"empty":         `{}`,
		"wrong version": `{"version": 99, "feature_method": "df", "categories": ["earn"]}`,
		"bad method":    `{"version": 1, "feature_method": "nope", "categories": ["earn"]}`,
		"no categories": `{"version": 1, "feature_method": "df", "categories": []}`,
	}
	for name, body := range cases {
		if _, err := ReadSnapshotHeader(strings.NewReader(body)); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}

// corruptSnapshots returns corruptions of a saved snapshot that an
// earlier Load accepted, each crashing the process later: a word map
// whose Dim is not the char map's unit count (index out of range in the
// first classify's level-2 sweep), a char map of Dim 1 (a panic inside
// Load, in the fanout build) and 2^40 registers (out of memory sizing
// the first scoring machine).
func corruptSnapshots(t testing.TB, good []byte) []struct {
	name string
	data []byte
} {
	t.Helper()
	mangle := func(f func(*modelSnapshot)) []byte {
		var s modelSnapshot
		if err := json.Unmarshal(good, &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return []struct {
		name string
		data []byte
	}{
		{"word map dim differs from char map units", mangle(func(s *modelSnapshot) {
			wm := &s.Encoder.Categories[0].Map
			wm.Config.Dim--
			for u, w := range wm.Weights {
				wm.Weights[u] = w[:wm.Config.Dim]
			}
		})},
		{"char map dim 1", mangle(func(s *modelSnapshot) {
			cm := &s.Encoder.CharMap
			cm.Config.Dim = 1
			for u, w := range cm.Weights {
				cm.Weights[u] = w[:1]
			}
		})},
		{"2^40 registers", mangle(func(s *modelSnapshot) { s.GP.NumRegisters = 1 << 40 })},
	}
}

func TestLoadRejectsInconsistentSnapshot(t *testing.T) {
	m, _ := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Drop one model entry: categories and models disagree.
	text := buf.String()
	mangled := strings.Replace(text, `"category":"earn"`, `"category":"zzz"`, 1)
	if mangled == text {
		t.Skip("snapshot shape changed; update the mangling")
	}
	if _, err := Load(strings.NewReader(mangled)); err == nil {
		t.Error("inconsistent snapshot accepted")
	}
	for _, c := range corruptSnapshots(t, buf.Bytes()) {
		if _, err := Load(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: snapshot accepted", c.name)
		}
	}
}
