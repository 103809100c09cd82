package experiments

import (
	"strings"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/telemetry"
)

// The smoke profile, its corpus and one run over them are shared across
// the package tests, so each selection's model trains once.
var (
	testProfile = SmokeProfile()
	testCorpus  *corpus.Corpus
	sharedRun   *Run
)

func profileCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	if testCorpus == nil {
		c, err := testProfile.Corpus()
		if err != nil {
			t.Fatalf("Corpus: %v", err)
		}
		testCorpus = c
	}
	return testCorpus
}

func testRun(t *testing.T) *Run {
	t.Helper()
	if sharedRun == nil {
		sharedRun = NewRun(testProfile, profileCorpus(t))
	}
	return sharedRun
}

func TestProfilesWellFormed(t *testing.T) {
	for _, p := range []Profile{SmokeProfile(), QuickProfile(), FullProfile()} {
		if p.Name == "" || p.Scale <= 0 || p.Restarts < 1 {
			t.Errorf("profile %+v malformed", p)
		}
	}
	full := FullProfile()
	if full.Scale != 1.0 || full.GP.Tournaments != 48000 || full.Restarts != 20 {
		t.Errorf("FullProfile not paper-scale: %+v", full)
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := testRun(t).Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Selected <= 0 {
			t.Errorf("method %s selected %d features", r.Method, r.Selected)
		}
	}
	// Per-category methods select more total features than their
	// per-category budget.
	out := FormatTable1(rows)
	for _, name := range []string{"Document Frequency", "Information Gain", "Mutual Information", "Frequent Nouns"} {
		if !strings.Contains(out, name) {
			t.Errorf("FormatTable1 missing %q:\n%s", name, out)
		}
	}
}

func TestFormatTable2(t *testing.T) {
	out := FormatTable2(lgp.DefaultConfig())
	for _, want := range []string{"Tournament", "125", "48000", "Node Limit", "256", "0.9", "0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable4SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 smoke run skipped in -short")
	}
	table, err := testRun(t).Table4()
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if len(table.Systems) != 4 {
		t.Fatalf("systems = %v", table.Systems)
	}
	for _, s := range table.Systems {
		if table.Micro[s] < 0 || table.Micro[s] > 1 {
			t.Errorf("%s micro F1 = %v", s, table.Micro[s])
		}
		for _, cat := range table.Categories {
			if f := table.F1[s][cat]; f < 0 || f > 1 {
				t.Errorf("%s/%s F1 = %v", s, cat, f)
			}
		}
	}
	out := table.Format()
	if !strings.Contains(out, "Macro Ave.") || !strings.Contains(out, "Micro Ave.") {
		t.Errorf("Format missing averages:\n%s", out)
	}
}

func TestRunTable5SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 smoke run skipped in -short")
	}
	table, err := testRun(t).Table5()
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	want := []string{"ProSys", "T-GP", "L-SVM", "DT", "NB"}
	for i, s := range want {
		if table.Systems[i] != s {
			t.Fatalf("systems = %v", table.Systems)
		}
	}
	// The baselines on a bag-of-words-separable synthetic corpus should
	// do reasonably; sanity-check L-SVM.
	if table.Micro["L-SVM"] < 0.3 {
		t.Errorf("L-SVM micro = %v, implausibly low", table.Micro["L-SVM"])
	}
}

func TestRunTable6SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 6 smoke run skipped in -short")
	}
	table, err := testRun(t).Table6()
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	if len(table.Systems) != 3 || table.Systems[0] != "ProSys" {
		t.Fatalf("systems = %v", table.Systems)
	}
	if table.Micro["NB"] <= 0 {
		t.Errorf("NB micro = %v", table.Micro["NB"])
	}
}

func TestRunFigure3(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 3 smoke run skipped in -short")
	}
	r := testRun(t)
	out, err := r.Figure3("earn")
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if !strings.Contains(out, "->") || !strings.Contains(out, "*") {
		t.Errorf("figure 3 output incomplete:\n%s", out)
	}
	if _, err := r.Figure3("bogus"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestRunFigure5And6(t *testing.T) {
	if testing.Short() {
		t.Skip("figure traces skipped in -short")
	}
	r := testRun(t)
	res5, err := r.Figure5("earn")
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(res5.Categories) != 1 || res5.Categories[0] != "earn" {
		t.Errorf("figure 5 doc labels = %v, want single-label earn", res5.Categories)
	}
	out := FormatTrace("Figure 5", res5)
	if !strings.Contains(out, "classifier") || !strings.Contains(out, "|") {
		t.Errorf("trace render incomplete:\n%s", out)
	}

	res6, err := r.Figure6()
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(res6.Categories) < 2 {
		t.Errorf("figure 6 doc labels = %v, want multi-label", res6.Categories)
	}
	if len(res6.Traces) != len(res6.Categories) {
		t.Errorf("traces for %d of %d labels", len(res6.Traces), len(res6.Categories))
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short")
	}
	c := profileCorpus(t)
	p := testProfile
	p.Metrics = telemetry.NewRegistry()
	results, err := NewRun(p, c).Ablations()
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	// The paper design trains once, each alternative once.
	want := int64((1 + len(ablations)) * len(c.Categories))
	if got := p.Metrics.Counter("core.categories.trained").Value(); got != want {
		t.Errorf("trained %d category models, want %d (%d trainings)", got, want, 1+len(ablations))
	}
	order := []struct{ key, name string }{
		{"recurrence", "recurrent vs non-recurrent LGP"},
		{"fanout", "3-BMU vs 1-BMU word vectors"},
		{"dss", "DSS vs full-set fitness"},
		{"dynamicpages", "dynamic vs fixed page size"},
		{"membership", "membership input vs index-only"},
		{"f1fitness", "SSE vs F1 fitness"},
		{"stratifieddss", "plain vs stratified DSS"},
		{"threshold", "Equation 6 vs F1-tuned threshold"},
	}
	if len(results) != len(order) {
		t.Fatalf("got %d results, want %d", len(results), len(order))
	}
	paper := results[0]
	for i, o := range order {
		res := results[i]
		t.Run(o.key, func(t *testing.T) {
			if res.Name != o.name {
				t.Errorf("result %d is %q, want %q", i, res.Name, o.name)
			}
			if res.MicroA != paper.MicroA || res.MacroA != paper.MacroA || res.FitnessA != paper.FitnessA {
				t.Errorf("paper row %+v differs from the shared one %+v", res, paper)
			}
			for _, v := range []float64{res.MicroA, res.MicroB, res.MacroA, res.MacroB} {
				if v < 0 || v > 1 {
					t.Errorf("F1 out of range in %+v", res)
				}
			}
			if out := res.Format(); !strings.Contains(out, "microF1") {
				t.Errorf("Format incomplete: %s", out)
			}
		})
	}
}

func TestRunSignificance(t *testing.T) {
	if testing.Short() {
		t.Skip("significance run skipped in -short")
	}
	out, err := testRun(t).Significance()
	if err != nil {
		t.Fatalf("Significance: %v", err)
	}
	for _, want := range []string{"ProSys", "NB", "Rocchio", "signP", "tTestP"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunTableTemporalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("temporal table skipped in -short")
	}
	table, err := testRun(t).TableTemporal()
	if err != nil {
		t.Fatalf("TableTemporal: %v", err)
	}
	for _, s := range []string{"ProSys", "SeqK", "Elman"} {
		if table.Micro[s] < 0 || table.Micro[s] > 1 {
			t.Errorf("%s micro = %v", s, table.Micro[s])
		}
	}
}

func TestRenderBar(t *testing.T) {
	if got := renderBar(0); !strings.Contains(got, "|") || strings.Contains(got, "#") {
		t.Errorf("renderBar(0) = %q", got)
	}
	if got := renderBar(1); strings.Count(got, "#") != 10 {
		t.Errorf("renderBar(1) = %q", got)
	}
	if got := renderBar(-1); strings.Count(got, "#") != 10 {
		t.Errorf("renderBar(-1) = %q", got)
	}
	if got := renderBar(0.5); strings.Count(got, "#") != 5 {
		t.Errorf("renderBar(0.5) = %q", got)
	}
	// Positive bars sit right of the axis.
	pos := renderBar(0.5)
	if strings.Index(pos, "#") < strings.Index(pos, "|") {
		t.Errorf("positive bar on wrong side: %q", pos)
	}
}

func TestF1TableFormatLayout(t *testing.T) {
	table := newF1Table("Title", []string{"A", "B"}, []string{"earn", "acq"})
	table.F1["A"]["earn"] = 0.5
	table.Macro["A"] = 0.25
	out := table.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + 2 categories + macro + micro = 6 lines.
	if len(lines) != 6 {
		t.Errorf("layout = %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "0.50") {
		t.Errorf("value missing: %s", lines[2])
	}
}

func TestEvaluateBaselineUnknown(t *testing.T) {
	c := profileCorpus(t)
	sel, err := featsel.Select(featsel.DF, c.Train, c.Categories, featsel.Config{GlobalN: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evaluateBaseline("nope", sel, c, 1); err == nil {
		t.Error("unknown baseline accepted")
	}
}
