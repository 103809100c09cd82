package baselines

import (
	"fmt"
	"sort"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/metrics"
)

// New constructs a comparison classifier by the Name it reports, over a
// feature vocabulary that tree-gp, seq-kernel and elman-rnn ignore (they
// build their own features). It sorts a copy of features first: the
// decision tree's splits depend on feature order, so the caller's order
// must not reach them.
func New(name string, features []string, seed int64) (Classifier, error) {
	features = append([]string(nil), features...)
	sort.Strings(features)
	switch name {
	case "naive-bayes":
		return NewNaiveBayes(features), nil
	case "rocchio":
		return NewRocchio(features, 0, 0), nil
	case "linear-svm":
		return NewLinearSVM(features, SVMConfig{Seed: seed}), nil
	case "decision-tree":
		return NewDecisionTree(features, TreeConfig{}), nil
	case "tree-gp":
		return NewTreeGP(TreeGPConfig{Seed: seed}), nil
	case "knn":
		return NewKNN(features, KNNConfig{}), nil
	case "seq-kernel":
		return NewSeqKernel(SeqKernelConfig{Seed: seed}), nil
	case "elman-rnn":
		return NewElman(ElmanConfig{Seed: seed}), nil
	default:
		return nil, fmt.Errorf("baselines: unknown baseline %q", name)
	}
}

// Evaluate trains the named classifier once per category on the
// training split, with documents filtered to the category's selected
// features as in the paper's comparisons, and observes its decision on
// every test document.
func Evaluate(name string, sel *featsel.Selection, c *corpus.Corpus, seed int64) (*metrics.Set, error) {
	set := metrics.NewSet()
	for _, cat := range c.Categories {
		keep := sel.KeepFor(cat)
		features := make([]string, 0, len(keep))
		for f := range keep {
			features = append(features, f)
		}
		clf, err := New(name, features, seed)
		if err != nil {
			return nil, err
		}
		train := make([]corpus.Document, len(c.Train))
		for i := range c.Train {
			train[i] = corpus.FilterWords(c.Train[i], keep)
		}
		if err := clf.Train(train, cat); err != nil {
			return nil, fmt.Errorf("baselines: %s on %s: %w", name, cat, err)
		}
		for i := range c.Test {
			filtered := corpus.FilterWords(c.Test[i], keep)
			set.Observe(cat, c.Test[i].HasCategory(cat), clf.Predict(filtered.Words))
		}
	}
	return set, nil
}
