package experiments

import (
	"fmt"
	"strings"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/lgp"
)

// AblationResult compares two variants of one design choice.
type AblationResult struct {
	Name           string
	VariantA       string
	VariantB       string
	MicroA, MicroB float64
	MacroA, MacroB float64
	FitnessA       float64 // mean training fitness over categories
	FitnessB       float64
}

// Format renders the comparison.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", r.Name)
	fmt.Fprintf(&b, "%-28s microF1=%.3f macroF1=%.3f meanFitness=%.2f\n",
		r.VariantA, r.MicroA, r.MacroA, r.FitnessA)
	fmt.Fprintf(&b, "%-28s microF1=%.3f macroF1=%.3f meanFitness=%.2f\n",
		r.VariantB, r.MicroB, r.MacroB, r.FitnessB)
	return b.String()
}

// runVariant trains and evaluates one pipeline configuration.
func runVariant(cfg core.Config, c *corpus.Corpus) (micro, macro, meanFitness float64, err error) {
	model, err := core.Train(cfg, c)
	if err != nil {
		return 0, 0, 0, err
	}
	set, err := model.Evaluate(c.Test)
	if err != nil {
		return 0, 0, 0, err
	}
	var fit float64
	for _, cat := range model.Categories() {
		fit += model.CategoryModelFor(cat).Fitness
	}
	fit /= float64(len(model.Categories()))
	return set.MicroF1(), set.MacroF1(), fit, nil
}

// paperDesign is the profile's DF pipeline with every choice the
// ablation suite varies pinned to the paper's value. The built-in
// profiles already make these choices, so this is the profile's own
// model.
func (p Profile) paperDesign() core.Config {
	cfg := p.CoreConfig(featsel.DF)
	cfg.GP.Recurrent = true
	cfg.Encoder.BMUFanout = 3
	dss := lgp.DSSConfig{SubsetSize: 40, Interval: 50}
	if cfg.GP.DSS != nil {
		dss = *cfg.GP.DSS
	}
	dss.Stratify = false
	cfg.GP.DSS = &dss
	cfg.DropMembershipInput = false
	cfg.GP.Fitness = lgp.FitnessSSE
	cfg.Threshold = core.ThresholdMedian
	return cfg
}

// ablation is one design choice the suite varies: the labels of the
// paper's value and of the alternative, and the change that turns the
// paper design into the alternative.
type ablation struct {
	name, paper, variant string
	mutate               func(*core.Config)
}

// ablations is the suite in report order.
var ablations = []ablation{
	// The paper's central claim is that temporal state matters.
	{"recurrent vs non-recurrent LGP", "recurrent (RLGP, paper)", "non-recurrent (reset/word)",
		func(cfg *core.Config) { cfg.GP.Recurrent = false }},
	// 3-BMU word vectors weight the BMUs 1, 1/2, 1/3.
	{"3-BMU vs 1-BMU word vectors", "fanout 3 (paper)", "fanout 1",
		func(cfg *core.Config) { cfg.Encoder.BMUFanout = 1 }},
	// DSS subset fitness against full-training-set fitness at an equal
	// tournament budget.
	{"DSS vs full-set fitness", "DSS (paper)", "full training set",
		func(cfg *core.Config) { cfg.GP.DSS = nil }},
	{"dynamic vs fixed page size", "dynamic pages (paper)", "fixed page size 1",
		func(cfg *core.Config) {
			// MaxPageSize 1 pins the schedule at single-instruction
			// pages; keep the node limit equal.
			cfg.GP.MaxPages = cfg.GP.MaxPages * cfg.GP.MaxPageSize
			cfg.GP.MaxPageSize = 1
		}},
	// The full 2-dimensional word code against BMU-index-only input.
	{"membership input vs index-only", "index+membership (paper)", "index only",
		func(cfg *core.Config) { cfg.DropMembershipInput = true }},
	// SSE fitness (Equation 5) against the F1-based fitness the paper's
	// conclusion proposes as future work.
	{"SSE vs F1 fitness", "SSE fitness (paper)", "F1 fitness (future work)",
		func(cfg *core.Config) { cfg.GP.Fitness = lgp.FitnessF1 }},
	// Difficulty/age DSS against the category-aware stratified variant
	// the paper proposes as future work.
	{"plain vs stratified DSS", "difficulty/age DSS (paper)", "stratified DSS (future work)",
		func(cfg *core.Config) {
			dss := *cfg.GP.DSS // the paper design's DSSConfig is shared
			dss.Stratify = true
			cfg.GP.DSS = &dss
		}},
	// Equation 6's median-of-medians decision threshold against a
	// training-F1-maximising sweep.
	{"Equation 6 vs F1-tuned threshold", "median of medians (Eq. 6)", "F1-tuned threshold",
		func(cfg *core.Config) { cfg.Threshold = core.ThresholdF1 }},
}

// Ablations trains the paper design once and each ablation's
// alternative once, and returns one comparison per ablation in report
// order. Every result's A side is the same paper-design row. These
// variants are the suite's own models, not the run's.
func (r *Run) Ablations() ([]AblationResult, error) {
	paper := r.p.paperDesign()
	microA, macroA, fitA, err := runVariant(paper, r.c)
	if err != nil {
		return nil, fmt.Errorf("paper design: %w", err)
	}
	out := make([]AblationResult, len(ablations))
	for i, a := range ablations {
		cfg := paper
		a.mutate(&cfg)
		microB, macroB, fitB, err := runVariant(cfg, r.c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out[i] = AblationResult{
			Name: a.name, VariantA: a.paper, VariantB: a.variant,
			MicroA: microA, MacroA: macroA, FitnessA: fitA,
			MicroB: microB, MacroB: macroB, FitnessB: fitB,
		}
	}
	return out, nil
}
