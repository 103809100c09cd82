package temporaldoc

import (
	"strings"
	"testing"

	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
)

// apiTestConfig is a minimal-budget Config for API smoke tests.
func apiTestConfig(method FeatureMethod) Config {
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 16
	gp.Tournaments = 80
	gp.MaxPages = 4
	gp.MaxPageSize = 4
	gp.DSS = nil
	return Config{
		FeatureMethod: method,
		FeatureConfig: FeatureBudget{GlobalN: 50, PerCategoryN: 20},
		Encoder: hsom.Config{
			CharWidth: 5, CharHeight: 5,
			WordWidth: 4, WordHeight: 4,
			CharEpochs: 2, WordEpochs: 3,
			Seed: 2,
		},
		GP:       gp,
		Restarts: 1,
		Seed:     7,
	}
}

func apiCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := GenerateReutersLike(GenConfig{Scale: 0.004, Seed: 3})
	if err != nil {
		t.Fatalf("GenerateReutersLike: %v", err)
	}
	return c
}

func TestPublicTrainClassifyTrace(t *testing.T) {
	c := apiCorpus(t)
	m, err := Train(apiTestConfig(DF), c)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := m.Classify(&c.Test[0]); err != nil {
		t.Errorf("Classify: %v", err)
	}
	if _, err := m.Trace("earn", &c.Test[0]); err != nil {
		t.Errorf("Trace: %v", err)
	}
	set, err := m.Evaluate(c.Test[:10])
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if got := set.Pooled().Total(); got != 10*len(c.Categories) {
		t.Errorf("pooled total = %d", got)
	}
}

func TestPaperConfigMatchesPaper(t *testing.T) {
	cfg := PaperConfig(MI)
	if cfg.GP.PopulationSize != 125 || cfg.GP.Tournaments != 48000 {
		t.Errorf("GP params: %+v", cfg.GP)
	}
	if cfg.Restarts != 20 {
		t.Errorf("restarts = %d, want 20", cfg.Restarts)
	}
	if cfg.FeatureConfig.PerCategoryN != 300 {
		t.Errorf("MI budget = %+v", cfg.FeatureConfig)
	}
}

func TestFastConfigIsSmaller(t *testing.T) {
	fast, paper := FastConfig(DF), PaperConfig(DF)
	if fast.GP.Tournaments >= paper.GP.Tournaments {
		t.Error("FastConfig not faster than PaperConfig")
	}
	if fast.Restarts >= paper.Restarts {
		t.Error("FastConfig restarts not reduced")
	}
}

func TestFeatureMethodsComplete(t *testing.T) {
	got := FeatureMethods()
	want := map[FeatureMethod]bool{DF: true, IG: true, MI: true, Nouns: true}
	if len(got) != 4 {
		t.Fatalf("FeatureMethods = %v", got)
	}
	for _, m := range got {
		if !want[m] {
			t.Errorf("unexpected method %v", m)
		}
	}
}

func TestReutersTop10(t *testing.T) {
	cats := ReutersTop10()
	if len(cats) != 10 || cats[0] != "earn" {
		t.Errorf("ReutersTop10 = %v", cats)
	}
	cats[0] = "mutated"
	if ReutersTop10()[0] != "earn" {
		t.Error("ReutersTop10 exposes internal slice")
	}
}

func TestPreprocess(t *testing.T) {
	words := Preprocess("<BODY>The Company announced record PROFITS.</BODY>")
	joined := strings.Join(words, " ")
	if !strings.Contains(joined, "profits") || strings.Contains(joined, "the") {
		t.Errorf("Preprocess = %v", words)
	}
}

func TestLoadReutersSGMLRoundTrip(t *testing.T) {
	src := `<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" NEWID="1">
<TOPICS><D>earn</D></TOPICS><TITLE>t</TITLE><BODY>profit rose dividend</BODY></REUTERS>
<REUTERS TOPICS="YES" LEWISSPLIT="TEST" NEWID="2">
<TOPICS><D>earn</D></TOPICS><TITLE>t</TITLE><BODY>net loss widened</BODY></REUTERS>`
	c, err := LoadReutersSGML([]string{"earn"}, strings.NewReader(src))
	if err != nil {
		t.Fatalf("LoadReutersSGML: %v", err)
	}
	if len(c.Train) != 1 || len(c.Test) != 1 {
		t.Errorf("splits: %d/%d", len(c.Train), len(c.Test))
	}
}

func TestLoadReutersSGMLBadInput(t *testing.T) {
	if _, err := LoadReutersSGML([]string{"earn"}, strings.NewReader("<REUTERS truncated")); err == nil {
		t.Error("truncated SGML accepted")
	}
	// No matching documents -> invalid (empty) corpus.
	if _, err := LoadReutersSGML([]string{"earn"}, strings.NewReader("")); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestNewBaselineNames(t *testing.T) {
	for _, name := range []string{
		BaselineNaiveBayes, BaselineRocchio, BaselineLinearSVM,
		BaselineDecisionTree, BaselineTreeGP, BaselineKNN, BaselineSeqKernel,
		BaselineElman,
	} {
		clf, err := NewBaseline(name, []string{"a", "b"}, 1)
		if err != nil {
			t.Errorf("NewBaseline(%s): %v", name, err)
			continue
		}
		if clf.Name() != name {
			t.Errorf("Name = %q, want %q", clf.Name(), name)
		}
	}
	if _, err := NewBaseline("bogus", nil, 1); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestEvaluateBaselineEndToEnd(t *testing.T) {
	c := apiCorpus(t)
	set, err := EvaluateBaselineWithBudget(BaselineNaiveBayes, MI,
		FeatureBudget{PerCategoryN: 25}, c, 1)
	if err != nil {
		t.Fatalf("EvaluateBaseline: %v", err)
	}
	if set.MicroF1() <= 0.2 {
		t.Errorf("NB micro F1 = %v, implausibly low for separable synthetic data", set.MicroF1())
	}
	for _, cat := range c.Categories {
		if got := set.Table(cat).Total(); got != len(c.Test) {
			t.Errorf("category %s total %d, want %d", cat, got, len(c.Test))
		}
	}
}

// TestEvaluateBaselineRepeatable repeats one decision-tree evaluation
// and requires identical contingency tables. The tree's splits depend
// on the order of its features, so that order must not come from
// iterating over the feature-selection map.
func TestEvaluateBaselineRepeatable(t *testing.T) {
	c, err := GenerateReutersLike(GenConfig{Scale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	budget := FeatureBudget{GlobalN: 150, PerCategoryN: 40}
	var first *EvalSet
	for run := 0; run < 6; run++ {
		set, err := EvaluateBaselineWithBudget(BaselineDecisionTree, MI, budget, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = set
			continue
		}
		for _, cat := range c.Categories {
			if got, want := set.Table(cat), first.Table(cat); got != want {
				t.Errorf("run %d, %s: contingency %+v, first run %+v", run, cat, got, want)
			}
		}
	}
}

func TestEvaluateBaselineDefaultBudget(t *testing.T) {
	c := apiCorpus(t)
	if _, err := EvaluateBaseline(BaselineRocchio, DF, c, 1); err != nil {
		t.Fatalf("EvaluateBaseline: %v", err)
	}
}
