package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"temporaldoc/internal/corpus"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the repository
// declares the benchmark with, in step with the workload specs and the
// metrics this command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, workloads/ has %d", len(bj.Workloads), len(specs))
	}
	for _, w := range bj.Workloads {
		if s, ok := specs[w.Name]; !ok || s.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, spec why %q", w.Name, w.Why, s.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s %s, command %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
			if (got[i].Bound != nil) != bounded || bounded && (*got[i].Bound <= 0 || *got[i].Bound > 0.25) {
				t.Errorf("%s: bound %v", got[i].Name, got[i].Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics, true)
	check("per_layer", bj.PerLayer, perLayerMetrics, false)
	// setup_s gets the largest bound.
	var setup float64
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bj.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %v above setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if got := specNames(specs); !slices.Equal(got, []string{"serve-repeat", "serve-unique", "train-quick"}) {
		t.Errorf("workloads = %v", got)
	}
	good := specs["serve-unique"]
	for name, mutate := range map[string]func(*workloadSpec){
		"two-line why": func(s *workloadSpec) { s.Why = "a\nb" },
		"profile":      func(s *workloadSpec) { s.Data.Profile = "full" },
		"pool":         func(s *workloadSpec) { s.Data.Pool = "random" },
		"hot set":      func(s *workloadSpec) { s.Data.HotSet = -1 },
		"open loop":    func(s *workloadSpec) { s.Rate.Loop = "open" },
		"connections":  func(s *workloadSpec) { s.Rate.Connections = 0 },
	} {
		s := good
		mutate(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestEnsureCoverage(t *testing.T) {
	docs := []corpus.Document{
		{Words: []string{"oil", "crude"}},
		{Words: []string{"barrel", "opec", "opec", "barrel", "tanker"}},
		{Words: []string{"tanker", "opec"}},
		{},
	}
	keep := map[string]bool{"oil": true}
	got := ensureCoverage(keep, docs)
	// opec and tanker both occur three times; opec wins alphabetically
	// and covers the second and third documents.
	if want := []string{"oil", "opec"}; !slices.Equal(sortedKeys(got), want) {
		t.Errorf("ensureCoverage = %v, want %v", sortedKeys(got), want)
	}
	if len(keep) != 1 {
		t.Error("ensureCoverage modified its input")
	}
	if covered := ensureCoverage(got, docs); len(covered) != 2 {
		t.Errorf("a covering keep-set grew to %v", sortedKeys(covered))
	}
}

func TestSameCorpus(t *testing.T) {
	gen := &corpus.Corpus{
		Categories: []string{"earn"},
		Train:      []corpus.Document{{ID: "a", Words: []string{"x"}, Categories: []string{"earn"}}},
		Test:       []corpus.Document{{ID: "b", Words: []string{"y"}, Categories: []string{"earn"}}},
	}
	ing := &corpus.Corpus{
		Categories: []string{"earn"},
		Train:      []corpus.Document{{ID: "reut-a", Words: []string{"x"}, Categories: []string{"earn"}}},
		Test:       []corpus.Document{{ID: "reut-b", Words: []string{"y"}, Categories: []string{"earn"}}},
	}
	if !sameCorpus(gen, ing) {
		t.Error("a faithful read-back differs")
	}
	ing.Test[0].Words = []string{strings.ToUpper("y")}
	if sameCorpus(gen, ing) {
		t.Error("changed words compare equal")
	}
}
