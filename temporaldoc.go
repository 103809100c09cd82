// Package temporaldoc is a reproduction of "Incorporating Temporal
// Information for Document Classification" (Luo & Zincir-Heywood, ICDE
// Workshops 2007): a document classifier that preserves the temporal
// order of words.
//
// Documents are encoded by a hierarchical Self-Organizing Map — a 7×13
// character map feeding per-category 8×8 word maps — into ordered
// sequences of 2-dimensional word codes (normalised BMU index, Gaussian
// membership). One Recurrent page-based Linear Genetic Programming
// (RLGP) classifier per category consumes the sequence word by word,
// registers persisting across the document, and the squashed output
// register after the last word decides membership against a
// median-derived threshold.
//
// Quick start:
//
//	corpus, _ := temporaldoc.GenerateReutersLike(temporaldoc.GenConfig{Scale: 0.05, Seed: 1})
//	model, _ := temporaldoc.Train(temporaldoc.FastConfig(temporaldoc.DF), corpus)
//	labels, _ := model.Classify(&corpus.Test[0])
//
// The heavy lifting lives in the internal packages (som, hsom, lgp,
// featsel, baselines, reuters); this package is the stable public
// surface.
package temporaldoc

import (
	"fmt"
	"io"

	"temporaldoc/internal/baselines"
	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/tdt"
	"temporaldoc/internal/textproc"
)

// Document is an ordered word sequence with zero or more category labels.
type Document = corpus.Document

// Corpus is a labelled document collection with train/test splits.
type Corpus = corpus.Corpus

// Config parameterises end-to-end training.
type Config = core.Config

// Model is a trained temporal document classifier.
type Model = core.Model

// CategoryModel is the trained per-category rule, threshold and fitness.
type CategoryModel = core.CategoryModel

// TracePoint is one step of a word-tracking trace (Figures 5 and 6).
type TracePoint = core.TracePoint

// EvalSet holds per-category contingency tables with micro/macro F1.
type EvalSet = metrics.Set

// Contingency is a per-category TP/FN/FP/TN table.
type Contingency = metrics.Contingency

// FeatureMethod selects a feature-selection technique.
type FeatureMethod = featsel.Method

// The four feature-selection techniques of the paper (Table 1).
const (
	// DF ranks by document frequency (top 1000, corpus-wide).
	DF = featsel.DF
	// IG ranks by information gain (top 1000, corpus-wide).
	IG = featsel.IG
	// MI ranks by mutual information (top 300 per category).
	MI = featsel.MI
	// Nouns ranks POS-tagged common nouns by frequency (top 100 per
	// category).
	Nouns = featsel.Nouns
)

// FeatureMethods lists all supported techniques.
func FeatureMethods() []FeatureMethod { return featsel.Methods() }

// GenConfig controls synthetic Reuters-like corpus generation.
type GenConfig = reuters.GenConfig

// Train fits the full system (feature selection → hierarchical SOM →
// per-category RLGP) on the corpus training split.
func Train(cfg Config, c *Corpus) (*Model, error) { return core.Train(cfg, c) }

// PaperConfig returns the paper's full experimental configuration for a
// feature-selection method: Table 1 feature budgets, the 7×13/8×8 SOM
// geometry, Table 2 GP parameters (125 individuals, 48000 tournaments)
// and 20 restarts. Expect long runtimes; use FastConfig for exploration.
func PaperConfig(method FeatureMethod) Config {
	return Config{
		FeatureMethod: method,
		FeatureConfig: featsel.DefaultConfig(method),
		GP:            lgp.DefaultConfig(),
		Restarts:      20,
		Seed:          1,
	}
}

// FastConfig returns a laptop-scale configuration: the paper's
// architecture with reduced GP budgets (40 individuals, 2000
// tournaments, single restart). Suitable for examples and smoke
// experiments.
func FastConfig(method FeatureMethod) Config {
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 40
	gp.Tournaments = 2000
	gp.DSS = &lgp.DSSConfig{SubsetSize: 40, Interval: 100}
	return Config{
		FeatureMethod: method,
		FeatureConfig: featsel.Config{GlobalN: 200, PerCategoryN: 60},
		GP:            gp,
		Restarts:      1,
		Seed:          1,
	}
}

// GenerateReutersLike builds the deterministic synthetic stand-in for
// the Reuters-21578 ModApte top-10 split (see DESIGN.md for the
// substitution rationale). Scale 1.0 reproduces the full split sizes.
func GenerateReutersLike(cfg GenConfig) (*Corpus, error) {
	return reuters.GenerateCorpus(cfg)
}

// ReutersTop10 lists the ten categories of the paper's evaluation.
func ReutersTop10() []string { return append([]string(nil), reuters.Top10...) }

// LoadReutersSGML parses real Reuters-21578 .sgm streams, applies the
// ModApte split discipline, pre-processes bodies and keeps only the
// given categories (pass ReutersTop10() for the paper's setting).
func LoadReutersSGML(categories []string, readers ...io.Reader) (*Corpus, error) {
	var raws []reuters.RawDocument
	for i, r := range readers {
		docs, err := reuters.ParseSGML(r)
		if err != nil {
			return nil, fmt.Errorf("temporaldoc: reader %d: %w", i, err)
		}
		raws = append(raws, docs...)
	}
	pre := textproc.NewPreprocessor(textproc.Options{})
	c := reuters.BuildCorpus(raws, categories, pre)
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("temporaldoc: %w", err)
	}
	return c, nil
}

// Stream is an incremental per-word classifier run over a word stream
// (see Model.NewStream) — the online form of the paper's word tracking.
type Stream = core.Stream

// StreamState is the live per-category state inside a Stream.
type StreamState = core.StreamState

// ThresholdRule selects how decision thresholds derive from training
// outputs: ThresholdMedian (Equation 6) or ThresholdF1.
type ThresholdRule = core.ThresholdRule

// The supported threshold rules.
const (
	ThresholdMedian = core.ThresholdMedian
	ThresholdF1     = core.ThresholdF1
)

// TopicSegment is a detected topical span of a word stream.
type TopicSegment = tdt.Segment

// TopicDrift is a detected change of the dominant topic along a stream.
type TopicDrift = tdt.Drift

// DriftDetector segments word streams with a trained model — the Topic
// Detection and Tracking application the paper's conclusion proposes.
type DriftDetector = tdt.Detector

// DriftConfig parameterises drift detection.
type DriftConfig = tdt.Config

// NewDriftDetector wraps a trained model for topic detection and
// tracking over word streams.
func NewDriftDetector(model *Model, cfg DriftConfig) (*DriftDetector, error) {
	return tdt.NewDetector(model, cfg)
}

// DominantTopics returns, per word position covered by a segment, the
// category of the highest-confidence covering segment.
func DominantTopics(segs []TopicSegment, docLen int) []string {
	return tdt.Dominant(segs, docLen)
}

// CVResult summarises one configuration variant's k-fold
// cross-validation performance.
type CVResult = core.CVResult

// CrossValidate performs k-fold cross-validation over the training
// split for a set of configuration variants and returns results sorted
// by mean macro F1 (best first). The test split is never touched.
func CrossValidate(base Config, c *Corpus, k int, variants map[string]func(Config) Config) ([]CVResult, error) {
	return core.CrossValidate(base, c, k, variants)
}

// SaveModel persists a trained model as JSON. Everything needed to
// classify and trace documents is included: the SOM hierarchy,
// per-category keep-sets, evolved programs and thresholds.
func SaveModel(w io.Writer, m *Model) error { return m.Save(w) }

// LoadModel reconstructs a model persisted with SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// RenderSGML writes a corpus in Reuters-21578 SGML form (bodies
// decorated with markup noise that pre-processing removes), so synthetic
// corpora can be persisted and reloaded through the real-data path.
func RenderSGML(w io.Writer, c *Corpus, seed int64) error {
	return reuters.RenderSGML(w, c, seed)
}

// Preprocess applies the paper's pre-processing (markup removal,
// tokenisation, stop-word removal, no stemming) to raw text.
func Preprocess(raw string) []string {
	return textproc.NewPreprocessor(textproc.Options{}).Process(raw)
}

// Baseline names accepted by NewBaseline.
const (
	BaselineNaiveBayes   = "naive-bayes"
	BaselineRocchio      = "rocchio"
	BaselineLinearSVM    = "linear-svm"
	BaselineDecisionTree = "decision-tree"
	BaselineTreeGP       = "tree-gp"
	BaselineKNN          = "knn"
	BaselineSeqKernel    = "seq-kernel"
	BaselineElman        = "elman-rnn"
)

// BaselineClassifier is a binary per-category comparison classifier
// (Tables 5 and 6).
type BaselineClassifier = baselines.Classifier

// NewBaseline constructs a comparison classifier by name over the given
// feature vocabulary (tree-gp, seq-kernel and elman-rnn build their own
// features and ignore the vocabulary). The vocabulary's order does not
// matter.
func NewBaseline(name string, features []string, seed int64) (BaselineClassifier, error) {
	return baselines.New(name, features, seed)
}

// EvaluateBaseline trains one baseline per category on the corpus
// training split (documents filtered to the feature selection, as in the
// paper's comparisons) and evaluates on the test split.
func EvaluateBaseline(name string, method FeatureMethod, c *Corpus, seed int64) (*EvalSet, error) {
	sel, err := featsel.Select(method, c.Train, c.Categories, featsel.DefaultConfig(method))
	if err != nil {
		return nil, err
	}
	return baselines.Evaluate(name, sel, c, seed)
}

// EvaluateBaselineWithBudget is EvaluateBaseline with an explicit
// feature budget (for scaled-down experiments).
func EvaluateBaselineWithBudget(name string, method FeatureMethod, budget featsel.Config, c *Corpus, seed int64) (*EvalSet, error) {
	sel, err := featsel.Select(method, c.Train, c.Categories, budget)
	if err != nil {
		return nil, err
	}
	return baselines.Evaluate(name, sel, c, seed)
}

// FeatureBudget exposes featsel.Config for budget overrides.
type FeatureBudget = featsel.Config
