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

// CategoryClassifier is a comparison classifier trained for one
// category, together with that category's selected features.
type CategoryClassifier struct {
	clf  Classifier
	keep map[string]bool
}

// TrainCategory trains the named classifier for one category on the
// training split, with documents filtered to the category's selected
// features as in the paper's comparisons.
func TrainCategory(name string, sel *featsel.Selection, c *corpus.Corpus, cat string, seed int64) (*CategoryClassifier, error) {
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
	return &CategoryClassifier{clf: clf, keep: keep}, nil
}

// Predict is the classifier's decision on a document filtered to its
// category's selected features.
func (cc *CategoryClassifier) Predict(doc *corpus.Document) bool {
	return cc.clf.Predict(corpus.FilterWords(*doc, cc.keep).Words)
}

// Evaluate trains the named classifier once per category
// (TrainCategory) and observes its decision on every test document.
func Evaluate(name string, sel *featsel.Selection, c *corpus.Corpus, seed int64) (*metrics.Set, error) {
	set := metrics.NewSet()
	for _, cat := range c.Categories {
		clf, err := TrainCategory(name, sel, c, cat, seed)
		if err != nil {
			return nil, err
		}
		for i := range c.Test {
			set.Observe(cat, c.Test[i].HasCategory(cat), clf.Predict(&c.Test[i]))
		}
	}
	return set, nil
}
