package experiments

import (
	"fmt"
	"strings"

	"temporaldoc/internal/baselines"
	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/metrics"
)

// SystemEval captures one system's paired evaluation data: per-decision
// correctness over (test document × category) in a fixed order, and
// per-category F1 — the inputs of the Yang & Liu significance tests.
type SystemEval struct {
	Name    string
	Correct []bool
	F1      map[string]float64
	Micro   float64
	Macro   float64
}

// evalDecisions runs a per-(doc, category) predicate over the test
// split in a fixed order, building the paired evaluation record.
func evalDecisions(name string, c *corpus.Corpus, predict func(doc *corpus.Document, cat string) (bool, error)) (*SystemEval, error) {
	set := metrics.NewSet()
	var correct []bool
	for i := range c.Test {
		doc := &c.Test[i]
		for _, cat := range c.Categories {
			pred, err := predict(doc, cat)
			if err != nil {
				return nil, err
			}
			actual := doc.HasCategory(cat)
			set.Observe(cat, actual, pred)
			correct = append(correct, pred == actual)
		}
	}
	f1 := make(map[string]float64, len(c.Categories))
	for _, cat := range c.Categories {
		f1[cat] = set.Table(cat).F1()
	}
	return &SystemEval{
		Name: name, Correct: correct, F1: f1,
		Micro: set.MicroF1(), Macro: set.MacroF1(),
	}, nil
}

// evalProSys wraps a trained model as a SystemEval.
func evalProSys(model *core.Model, c *corpus.Corpus) (*SystemEval, error) {
	return evalDecisions("ProSys", c, func(doc *corpus.Document, cat string) (bool, error) {
		score, err := model.Score(cat, doc)
		if err != nil {
			return false, err
		}
		return score > model.CategoryModelFor(cat).Threshold, nil
	})
}

// evalBaselineSystem trains one baseline per category under the
// selection and wraps it as a SystemEval.
func evalBaselineSystem(name string, sel *featsel.Selection, c *corpus.Corpus, seed int64) (*SystemEval, error) {
	baseline, err := baselineName(name)
	if err != nil {
		return nil, err
	}
	clfs := make(map[string]baselines.Classifier, len(c.Categories))
	keeps := make(map[string]map[string]bool, len(c.Categories))
	for _, cat := range c.Categories {
		keep := sel.KeepFor(cat)
		keeps[cat] = keep
		features := make([]string, 0, len(keep))
		for f := range keep {
			features = append(features, f)
		}
		clf, err := baselines.New(baseline, features, seed)
		if err != nil {
			return nil, err
		}
		train := make([]corpus.Document, len(c.Train))
		for i := range c.Train {
			train[i] = corpus.FilterWords(c.Train[i], keep)
		}
		if err := clf.Train(train, cat); err != nil {
			return nil, err
		}
		clfs[cat] = clf
	}
	return evalDecisions(name, c, func(doc *corpus.Document, cat string) (bool, error) {
		filtered := corpus.FilterWords(*doc, keeps[cat])
		return clfs[cat].Predict(filtered.Words), nil
	})
}

// RunSignificance compares ProSys against the Table 5 baselines under
// MI features with the micro sign test and the macro paired t-test,
// returning a formatted report.
func RunSignificance(p Profile, c *corpus.Corpus) (string, error) {
	model, err := p.TrainProSys(c, featsel.MI)
	if err != nil {
		return "", err
	}
	pro, err := evalProSys(model, c)
	if err != nil {
		return "", err
	}
	budget := p.FeatureBudget
	if budget == (featsel.Config{}) {
		budget = featsel.DefaultConfig(featsel.MI)
	}
	sel, err := featsel.Select(featsel.MI, c.Train, c.Categories, budget)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Significance of ProSys vs baselines (MI features)\n")
	b.WriteString("micro s-test over paired decisions; macro paired t-test over per-category F1\n\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %10s %10s %8s %10s\n",
		"system", "microF1", "macroF1", "ProSys-only", "sys-only", "signP", "tTestP")
	fmt.Fprintf(&b, "%-8s %8.3f %8.3f\n", "ProSys", pro.Micro, pro.Macro)
	for _, name := range []string{"NB", "DT", "L-SVM", "Rocchio", "kNN"} {
		sys, err := evalBaselineSystem(name, sel, c, p.Seed)
		if err != nil {
			return "", err
		}
		cmp, err := metrics.Compare(pro.Correct, sys.Correct, pro.F1, sys.F1)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8s %8.3f %8.3f %10d %10d %8.4f %10.4f\n",
			name, sys.Micro, sys.Macro, cmp.AOnly, cmp.BOnly, cmp.SignP, cmp.TTestP)
	}
	return b.String(), nil
}
