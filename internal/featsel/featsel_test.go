package featsel

import (
	"reflect"
	"testing"

	"temporaldoc/internal/corpus"
)

func doc(id, cat string, words ...string) corpus.Document {
	return corpus.Document{ID: id, Words: words, Categories: []string{cat}}
}

func trainSet() []corpus.Document {
	return []corpus.Document{
		doc("1", "earn", "profit", "dividend", "quarter", "profit"),
		doc("2", "earn", "profit", "shares", "quarter"),
		doc("3", "earn", "dividend", "profit"),
		doc("4", "grain", "wheat", "tonnes", "harvest"),
		doc("5", "grain", "wheat", "crop", "exports"),
		doc("6", "grain", "wheat", "tonnes", "quarter"),
	}
}

var cats = []string{"earn", "grain"}

func TestSelectRejectsBadInput(t *testing.T) {
	if _, err := Select(DF, nil, cats, Config{GlobalN: 5}); err == nil {
		t.Error("empty train accepted")
	}
	if _, err := Select(DF, trainSet(), cats, Config{}); err == nil {
		t.Error("DF with zero budget accepted")
	}
	if _, err := Select(IG, trainSet(), nil, Config{GlobalN: 5}); err == nil {
		t.Error("IG without categories accepted")
	}
	if _, err := Select(MI, trainSet(), cats, Config{}); err == nil {
		t.Error("MI with zero budget accepted")
	}
	if _, err := Select(Method("bogus"), trainSet(), cats, Config{GlobalN: 5}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestDFRanksByDocumentFrequency(t *testing.T) {
	sel, err := Select(DF, trainSet(), cats, Config{GlobalN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.IsGlobal() {
		t.Fatal("DF selection not global")
	}
	// profit appears in 3 docs, wheat in 3, quarter in 3 — tie broken
	// alphabetically: profit, quarter, wheat. Top 2 = profit, quarter.
	want := []string{"profit", "quarter", "wheat"}
	sel3, _ := Select(DF, trainSet(), cats, Config{GlobalN: 3})
	if !reflect.DeepEqual(sel3.Global, want) {
		t.Errorf("DF top3 = %v, want %v", sel3.Global, want)
	}
	if len(sel.Global) != 2 {
		t.Errorf("budget not respected: %v", sel.Global)
	}
}

func TestDFBudgetLargerThanVocab(t *testing.T) {
	sel, err := Select(DF, trainSet(), cats, Config{GlobalN: 1000})
	if err != nil {
		t.Fatal(err)
	}
	vocab := corpus.Vocabulary(trainSet())
	if len(sel.Global) != len(vocab) {
		t.Errorf("DF returned %d features, vocab has %d", len(sel.Global), len(vocab))
	}
}

func TestIGPrefersDiscriminativeFeatures(t *testing.T) {
	sel, err := Select(IG, trainSet(), cats, Config{GlobalN: 3})
	if err != nil {
		t.Fatal(err)
	}
	// "profit" (earn-only, 3 docs) and "wheat" (grain-only, 3 docs) are
	// perfectly discriminative; "quarter" straddles both and must rank
	// below them.
	top := map[string]bool{}
	for _, f := range sel.Global {
		top[f] = true
	}
	if !top["profit"] || !top["wheat"] {
		t.Errorf("IG top3 missing discriminative features: %v", sel.Global)
	}
	for i, f := range sel.Global {
		if f == "quarter" && i < 2 {
			t.Errorf("IG ranked straddling feature 'quarter' at %d: %v", i, sel.Global)
		}
	}
}

func TestMIIsPerCategory(t *testing.T) {
	sel, err := Select(MI, trainSet(), cats, Config{PerCategoryN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sel.IsGlobal() {
		t.Fatal("MI selection global")
	}
	earn := sel.PerCategory["earn"]
	grain := sel.PerCategory["grain"]
	if len(earn) != 2 || len(grain) != 2 {
		t.Fatalf("per-category budgets: earn=%v grain=%v", earn, grain)
	}
	// The most informative feature for each category is its exclusive
	// high-frequency word.
	if earn[0] != "profit" {
		t.Errorf("MI earn top = %v", earn)
	}
	if grain[0] != "wheat" {
		t.Errorf("MI grain top = %v", grain)
	}
}

func TestNounsPerCategoryFrequencyRanked(t *testing.T) {
	sel, err := Select(Nouns, trainSet(), cats, Config{PerCategoryN: 3})
	if err != nil {
		t.Fatal(err)
	}
	grain := sel.PerCategory["grain"]
	if len(grain) == 0 || grain[0] != "wheat" {
		t.Errorf("Nouns grain = %v, want wheat first", grain)
	}
	earn := sel.PerCategory["earn"]
	if len(earn) == 0 || earn[0] != "profit" {
		t.Errorf("Nouns earn = %v, want profit first", earn)
	}
}

func TestKeepForGlobalAndPerCategory(t *testing.T) {
	dfSel, _ := Select(DF, trainSet(), cats, Config{GlobalN: 3})
	keep := dfSel.KeepFor("earn")
	if !keep["profit"] {
		t.Errorf("global KeepFor missing profit: %v", keep)
	}
	if !reflect.DeepEqual(keep, dfSel.KeepFor("grain")) {
		t.Error("global KeepFor differs across categories")
	}
	miSel, _ := Select(MI, trainSet(), cats, Config{PerCategoryN: 1})
	if !miSel.KeepFor("earn")["profit"] {
		t.Errorf("MI KeepFor(earn) = %v", miSel.KeepFor("earn"))
	}
	if miSel.KeepFor("earn")["wheat"] {
		t.Error("MI KeepFor(earn) leaked grain feature")
	}
	if len(miSel.KeepFor("nonexistent")) != 0 {
		t.Error("KeepFor unknown category non-empty")
	}
	if miSel.Count() != 2 {
		t.Errorf("Count = %d, want 2", miSel.Count())
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	if c := DefaultConfig(DF); c.GlobalN != 1000 {
		t.Errorf("DF default = %+v", c)
	}
	if c := DefaultConfig(IG); c.GlobalN != 1000 {
		t.Errorf("IG default = %+v", c)
	}
	if c := DefaultConfig(MI); c.PerCategoryN != 300 {
		t.Errorf("MI default = %+v", c)
	}
	if c := DefaultConfig(Nouns); c.PerCategoryN != 100 {
		t.Errorf("Nouns default = %+v", c)
	}
}

func TestMIScoreZeroForIndependent(t *testing.T) {
	// Feature present in exactly the class-proportional share of docs:
	// joint = P(f)P(c)N, MI must be ~0.
	if got := miScore(25, 50, 50, 100); got > 1e-12 || got < -1e-12 {
		t.Errorf("independent MI = %v, want 0", got)
	}
}

func TestMIScorePositiveForAssociated(t *testing.T) {
	if got := miScore(50, 50, 50, 100); got <= 0 {
		t.Errorf("perfectly associated MI = %v, want > 0", got)
	}
}

func TestMethodsList(t *testing.T) {
	if got := Methods(); len(got) != 4 {
		t.Errorf("Methods = %v", got)
	}
	if got := AllMethods(); len(got) != 5 || got[4] != CHI {
		t.Errorf("AllMethods = %v", got)
	}
}

func TestCHIPrefersDiscriminativeFeatures(t *testing.T) {
	sel, err := Select(CHI, trainSet(), cats, Config{PerCategoryN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sel.IsGlobal() {
		t.Fatal("CHI selection global")
	}
	if sel.PerCategory["earn"][0] != "profit" {
		t.Errorf("CHI earn = %v", sel.PerCategory["earn"])
	}
	if sel.PerCategory["grain"][0] != "wheat" {
		t.Errorf("CHI grain = %v", sel.PerCategory["grain"])
	}
}

func TestCHIValidation(t *testing.T) {
	if _, err := Select(CHI, trainSet(), cats, Config{}); err == nil {
		t.Error("CHI with zero budget accepted")
	}
	if _, err := Select(CHI, trainSet(), nil, Config{PerCategoryN: 2}); err == nil {
		t.Error("CHI without categories accepted")
	}
}

func TestCHIDefaultConfig(t *testing.T) {
	if c := DefaultConfig(CHI); c.PerCategoryN != 300 {
		t.Errorf("CHI default = %+v", c)
	}
}

func TestMultiLabelDocumentsCountForEachCategory(t *testing.T) {
	train := []corpus.Document{
		{ID: "1", Words: []string{"wheat", "export"}, Categories: []string{"grain", "wheat"}},
		{ID: "2", Words: []string{"profit"}, Categories: []string{"earn"}},
	}
	sel, err := Select(MI, train, []string{"earn", "grain", "wheat"}, Config{PerCategoryN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.PerCategory["grain"][0] != sel.PerCategory["wheat"][0] {
		t.Errorf("multi-label doc should drive both grain and wheat: %v", sel.PerCategory)
	}
}
