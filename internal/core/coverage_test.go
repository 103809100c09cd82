package core

import (
	"strings"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
)

func TestSetDefaultsFillsEverything(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	if cfg.FeatureMethod != featsel.DF {
		t.Errorf("FeatureMethod = %v", cfg.FeatureMethod)
	}
	if cfg.FeatureConfig.GlobalN != 1000 {
		t.Errorf("FeatureConfig = %+v", cfg.FeatureConfig)
	}
	if cfg.GP.PopulationSize != 125 {
		t.Errorf("GP defaults missing: %+v", cfg.GP)
	}
	if cfg.GP.NumInputs != 2 {
		t.Errorf("NumInputs = %d", cfg.GP.NumInputs)
	}
	if cfg.Restarts != 1 {
		t.Errorf("Restarts = %d", cfg.Restarts)
	}
	if cfg.Encoder.Seed == 0 {
		t.Error("encoder seed not derived")
	}
}

func TestEnsureCoverageNoOpWhenCovered(t *testing.T) {
	keep := map[string]bool{"wheat": true}
	docs := []corpus.Document{
		{ID: "1", Words: []string{"wheat", "crop"}},
		{ID: "2", Words: []string{"wheat"}},
	}
	got := ensureCoverage(keep, docs)
	if len(got) != 1 || !got["wheat"] {
		t.Errorf("covered case widened the keep set: %v", got)
	}
}

func TestEnsureCoverageWidensMinimally(t *testing.T) {
	keep := map[string]bool{}
	docs := []corpus.Document{
		{ID: "1", Words: []string{"common", "rare"}},
		{ID: "2", Words: []string{"common"}},
		{ID: "3", Words: []string{"common", "other"}},
	}
	got := ensureCoverage(keep, docs)
	// "common" covers every document by itself; the input map must not
	// be mutated.
	if !got["common"] {
		t.Errorf("most frequent word not added: %v", got)
	}
	if len(got) != 1 {
		t.Errorf("widened more than needed: %v", got)
	}
	if len(keep) != 0 {
		t.Error("input keep set mutated")
	}
}

func TestEnsureCoverageEmptyDocsIgnored(t *testing.T) {
	keep := map[string]bool{}
	docs := []corpus.Document{
		{ID: "1", Words: nil}, // can never be covered
		{ID: "2", Words: []string{"word"}},
	}
	got := ensureCoverage(keep, docs)
	if !got["word"] {
		t.Errorf("coverage skipped non-empty doc: %v", got)
	}
}

func TestModelEncoderAccessor(t *testing.T) {
	m, _ := trainedModel(t)
	if m.Encoder() == nil {
		t.Fatal("Encoder() nil")
	}
	if m.Encoder().Category("earn") == nil {
		t.Error("encoder missing category")
	}
}

func TestSimplifiedRule(t *testing.T) {
	m, _ := trainedModel(t)
	full, err := m.Rule("earn")
	if err != nil {
		t.Fatal(err)
	}
	simp, err := m.SimplifiedRule("earn")
	if err != nil {
		t.Fatal(err)
	}
	if len(simp) > len(full) {
		t.Errorf("simplified rule longer than original (%d > %d)", len(simp), len(full))
	}
	if simp != "" && !strings.Contains(simp, "R0") {
		t.Errorf("simplified rule lost the output register: %q", simp)
	}
	if _, err := m.SimplifiedRule("bogus"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestTrainWithRestartsPicksBest(t *testing.T) {
	c := smallCorpus(t)
	cfg := fastConfig(featsel.DF)
	cfg.GP.Tournaments = 40
	cfg.Restarts = 2
	m, err := Train(cfg, c)
	if err != nil {
		t.Fatalf("Train(restarts=2): %v", err)
	}
	for _, cat := range m.Categories() {
		cm := m.CategoryModelFor(cat)
		if cm.Restart < 0 || cm.Restart > 1 {
			t.Errorf("category %s restart = %d", cat, cm.Restart)
		}
	}
}
