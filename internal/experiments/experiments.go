// Package experiments regenerates every table and figure of the paper's
// evaluation (section 8) against the synthetic Reuters-like corpus:
//
//	Table 1 — selected feature counts per method
//	Table 2 — GP parameters
//	Table 3 — IR measure definitions (exercised via internal/metrics)
//	Table 4 — ProSys F1 under DF / IG / Nouns / MI
//	Table 5 — ProSys vs T-GP / L-SVM / DT / NB under MI
//	Table 6 — ProSys vs NB / Rocchio under IG
//	Figure 3 — word → BMU mapping on a category SOM
//	Figure 5 — single-label word-tracking trace
//	Figure 6 — multi-label word-tracking trace
//
// Every runner is a method of a Run, which trains the paper's system
// once per feature selection and shares that model among the tables and
// figures that use it. Each runner is deterministic for a fixed Profile
// and is shared by the benchmark harness (bench_test.go), the
// benchtables command and tdc.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"temporaldoc/internal/baselines"
	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/plot"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/telemetry"
)

// Profile bundles the corpus scale and model budgets of one experimental
// run. QuickProfile is laptop-scale; FullProfile reproduces the paper's
// budgets (long runtimes).
type Profile struct {
	Name          string
	Scale         float64
	Seed          int64
	FeatureBudget featsel.Config
	Encoder       hsom.Config
	GP            lgp.Config
	Restarts      int
	// Metrics, when non-nil, is threaded into core.Config.Metrics so
	// experiment runs record pipeline telemetry. Diagnostics-only.
	Metrics *telemetry.Registry
	// Observer, when non-nil, receives the pipeline's typed TrainEvents
	// for every model the experiment trains. Diagnostics-only.
	Observer core.Observer
}

// QuickProfile returns a minutes-scale profile: ~3% corpus scale and
// reduced GP budgets. Experiment *shapes* (who wins, where ProSys is
// weak) are preserved; absolute F1 differs from the paper.
func QuickProfile() Profile {
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 30
	gp.Tournaments = 800
	gp.DSS = &lgp.DSSConfig{SubsetSize: 40, Interval: 50}
	return Profile{
		Name:  "quick",
		Scale: 0.03,
		Seed:  1,
		FeatureBudget: featsel.Config{
			GlobalN:      150,
			PerCategoryN: 40,
		},
		Encoder: hsom.Config{
			CharWidth: 7, CharHeight: 13,
			WordWidth: 8, WordHeight: 8,
			CharEpochs: 2, WordEpochs: 4,
			BMUFanout: 3,
			Seed:      2,
		},
		GP:       gp,
		Restarts: 1,
	}
}

// SmokeProfile is the smallest profile that still runs every stage —
// used by unit tests and -short benchmarks.
func SmokeProfile() Profile {
	p := QuickProfile()
	p.Name = "smoke"
	p.Scale = 0.008
	p.FeatureBudget = featsel.Config{GlobalN: 80, PerCategoryN: 25}
	p.Encoder.CharWidth, p.Encoder.CharHeight = 5, 5
	p.Encoder.WordWidth, p.Encoder.WordHeight = 4, 4
	p.GP.PopulationSize = 20
	p.GP.Tournaments = 200
	p.GP.DSS = &lgp.DSSConfig{SubsetSize: 25, Interval: 40}
	return p
}

// FullProfile reproduces the paper's budgets: full ModApte-size corpus,
// Table 1 feature counts, Table 2 GP parameters, 20 restarts.
func FullProfile() Profile {
	return Profile{
		Name:          "full",
		Scale:         1.0,
		Seed:          1,
		FeatureBudget: featsel.Config{GlobalN: 1000, PerCategoryN: 300},
		Encoder:       hsom.DefaultConfig(),
		GP:            lgp.DefaultConfig(),
		Restarts:      20,
	}
}

// ProfileByName returns the smoke, quick or full profile. A nonzero seed
// and a positive scale override the profile's own.
func ProfileByName(name string, seed int64, scale float64) (Profile, error) {
	var p Profile
	switch name {
	case "smoke":
		p = SmokeProfile()
	case "quick":
		p = QuickProfile()
	case "full":
		p = FullProfile()
	default:
		return p, fmt.Errorf("unknown profile %q (smoke, quick, full)", name)
	}
	if seed != 0 {
		p.Seed = seed
	}
	if scale > 0 {
		p.Scale = scale
	}
	return p, nil
}

// Corpus generates the profile's synthetic corpus.
func (p Profile) Corpus() (*corpus.Corpus, error) {
	cfg := reuters.DefaultGenConfig()
	cfg.Scale = p.Scale
	cfg.Seed = p.Seed
	return reuters.GenerateCorpus(cfg)
}

// CoreConfig is the pipeline configuration the profile trains a feature
// selection's model with. A zero FeatureBudget takes the paper's Table 1
// budget for the method.
func (p Profile) CoreConfig(method featsel.Method) core.Config {
	budget := p.FeatureBudget
	if budget == (featsel.Config{}) {
		budget = featsel.DefaultConfig(method)
	}
	return core.Config{
		FeatureMethod: method,
		FeatureConfig: budget,
		Encoder:       p.Encoder,
		GP:            p.GP,
		Restarts:      p.Restarts,
		Metrics:       p.Metrics,
		Observer:      p.Observer,
		Seed:          p.Seed,
	}
}

// Run is one experiment run: a profile, its corpus and, for each feature
// selection, the ProSys model trained on first use. Every table and
// figure of the run that needs a selection's model shares that one
// model; training is deterministic, so sharing changes no output. A Run
// is not safe for concurrent use.
type Run struct {
	p      Profile
	c      *corpus.Corpus
	models map[featsel.Method]*core.Model
}

// NewRun starts a run of the profile over a corpus, normally the
// profile's own (Profile.Corpus).
func NewRun(p Profile, c *corpus.Corpus) *Run {
	return &Run{p: p, c: c, models: make(map[featsel.Method]*core.Model)}
}

// Model returns the paper's system trained under one feature selection,
// training it on the first call for that selection.
func (r *Run) Model(method featsel.Method) (*core.Model, error) {
	if m := r.models[method]; m != nil {
		return m, nil
	}
	m, err := core.Train(r.p.CoreConfig(method), r.c)
	if err != nil {
		return nil, fmt.Errorf("ProSys %s: %w", method, err)
	}
	r.models[method] = m
	return m, nil
}

// --- Table 1 ---

// Table1Row reports one feature-selection method's configuration and the
// realised feature count on the profile corpus.
type Table1Row struct {
	Method   featsel.Method
	Budget   string
	Selected int
}

// Table1 reproduces Table 1: the number of selected features per
// method. It selects without training.
func (r *Run) Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 4)
	for _, m := range []featsel.Method{featsel.DF, featsel.IG, featsel.MI, featsel.Nouns} {
		budget := r.p.CoreConfig(m).FeatureConfig
		sel, err := featsel.Select(m, r.c.Train, r.c.Categories, budget)
		if err != nil {
			return nil, err
		}
		desc := fmt.Sprintf("%d (whole corpus)", budget.GlobalN)
		if !sel.IsGlobal() {
			desc = fmt.Sprintf("%d (per category)", budget.PerCategoryN)
		}
		rows = append(rows, Table1Row{Method: m, Budget: desc, Selected: sel.Count()})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 rows.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1. Number of Selected Features for Each Feature Selection Method\n")
	fmt.Fprintf(&b, "%-22s %-22s %s\n", "Method", "Budget", "Selected")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-22s %d\n", methodName(r.Method), r.Budget, r.Selected)
	}
	return b.String()
}

func methodName(m featsel.Method) string {
	switch m {
	case featsel.DF:
		return "Document Frequency"
	case featsel.IG:
		return "Information Gain"
	case featsel.MI:
		return "Mutual Information"
	case featsel.Nouns:
		return "Frequent Nouns"
	default:
		return string(m)
	}
}

// --- Table 2 ---

// FormatTable2 renders the GP parameter table from the live defaults.
func FormatTable2(cfg lgp.Config) string {
	var b strings.Builder
	b.WriteString("Table 2. GP Parameters\n")
	rows := [][2]string{
		{"Selection type", "Tournament"},
		{"Tournament size", fmt.Sprint(cfg.TournamentSize)},
		{"Functional Set", "+, -, *, /"},
		{"Instruction Type (Ratio)", fmt.Sprintf("Constants (%g), Internal (%g), External (%g)",
			cfg.ConstantRatio, cfg.InternalRatio, cfg.ExternalRatio)},
		{"Node Limit", fmt.Sprint(cfg.MaxPages * cfg.MaxPageSize)},
		{"Population Size", fmt.Sprint(cfg.PopulationSize)},
		{"Generations", fmt.Sprint(cfg.Tournaments)},
		{"Number of Registers", fmt.Sprint(cfg.NumRegisters)},
		{"P(Xover)", fmt.Sprint(cfg.PCrossover)},
		{"P(Mutate)", fmt.Sprint(cfg.PMutate)},
		{"P(Swap)", fmt.Sprint(cfg.PSwap)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %s\n", r[0], r[1])
	}
	return b.String()
}

// --- F1 tables (4, 5, 6) ---

// F1Table holds per-category F1 scores for a set of systems, plus macro
// and micro averages — the shared shape of Tables 4, 5 and 6.
type F1Table struct {
	Title      string
	Systems    []string
	Categories []string
	// F1 is indexed [system][category].
	F1 map[string]map[string]float64
	// Macro and Micro are indexed [system].
	Macro, Micro map[string]float64
}

func newF1Table(title string, systems, categories []string) *F1Table {
	t := &F1Table{
		Title:      title,
		Systems:    systems,
		Categories: categories,
		F1:         make(map[string]map[string]float64, len(systems)),
		Macro:      make(map[string]float64, len(systems)),
		Micro:      make(map[string]float64, len(systems)),
	}
	for _, s := range systems {
		t.F1[s] = make(map[string]float64, len(categories))
	}
	return t
}

func (t *F1Table) addSystem(name string, set *metrics.Set) {
	for _, cat := range t.Categories {
		t.F1[name][cat] = set.Table(cat).F1()
	}
	t.Macro[name] = set.MacroF1()
	t.Micro[name] = set.MicroF1()
}

// Format renders the table in the paper's layout.
func (t *F1Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	fmt.Fprintf(&b, "%-12s", "Category")
	for _, s := range t.Systems {
		fmt.Fprintf(&b, " %10s", s)
	}
	b.WriteByte('\n')
	for _, cat := range t.Categories {
		fmt.Fprintf(&b, "%-12s", cat)
		for _, s := range t.Systems {
			fmt.Fprintf(&b, " %10.2f", t.F1[s][cat])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s", "Macro Ave.")
	for _, s := range t.Systems {
		fmt.Fprintf(&b, " %10.2f", t.Macro[s])
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-12s", "Micro Ave.")
	for _, s := range t.Systems {
		fmt.Fprintf(&b, " %10.2f", t.Micro[s])
	}
	b.WriteByte('\n')
	return b.String()
}

// Table4 reproduces Table 4: ProSys F1 per category under the four
// feature-selection methods.
func (r *Run) Table4() (*F1Table, error) {
	methods := []featsel.Method{featsel.DF, featsel.IG, featsel.Nouns, featsel.MI}
	names := []string{"DF", "IG", "Nouns", "MI"}
	table := newF1Table("Table 4. Performance on Reuters-like corpus, four feature selections (F1)",
		names, r.c.Categories)
	for i, m := range methods {
		model, err := r.Model(m)
		if err != nil {
			return nil, err
		}
		set, err := model.Evaluate(r.c.Test)
		if err != nil {
			return nil, err
		}
		table.addSystem(names[i], set)
	}
	return table, nil
}

// baselineNames maps the comparison tables' labels to the baselines
// package's names.
var baselineNames = map[string]string{
	"NB":      "naive-bayes",
	"Rocchio": "rocchio",
	"L-SVM":   "linear-svm",
	"DT":      "decision-tree",
	"T-GP":    "tree-gp",
	"kNN":     "knn",
	"SeqK":    "seq-kernel",
	"Elman":   "elman-rnn",
}

// baselineName resolves a table label to its baselines name.
func baselineName(label string) (string, error) {
	name, ok := baselineNames[label]
	if !ok {
		return "", fmt.Errorf("unknown baseline %q", label)
	}
	return name, nil
}

// evaluateBaseline trains the baseline behind a table label once per
// category under a selection and evaluates it on the test split.
func evaluateBaseline(label string, sel *featsel.Selection, c *corpus.Corpus, seed int64) (*metrics.Set, error) {
	name, err := baselineName(label)
	if err != nil {
		return nil, err
	}
	return baselines.Evaluate(name, sel, c, seed)
}

// Table5 reproduces Table 5: ProSys vs T-GP, L-SVM, DT and NB under
// Mutual Information feature selection.
func (r *Run) Table5() (*F1Table, error) {
	return r.compare(comparison{"Table 5. Comparison: Mutual Information (F1)", featsel.MI,
		[]string{"T-GP", "L-SVM", "DT", "NB"}})
}

// Table6 reproduces Table 6: ProSys vs NB and Rocchio under Information
// Gain feature selection.
func (r *Run) Table6() (*F1Table, error) {
	return r.compare(comparison{"Table 6. Comparison: Information Gain (F1)", featsel.IG,
		[]string{"NB", "Rocchio"}})
}

// TableTemporal is an extension table not in the paper: ProSys against
// the two *temporal* approaches its related-work section discusses — the
// word-sequence kernel (Cancedda et al. 2003) and a Wermter-style Elman
// recurrent network — under MI feature selection. This isolates the
// paper's contribution among order-aware systems, where Tables 5/6
// compare against bag-of-words models.
func (r *Run) TableTemporal() (*F1Table, error) {
	return r.compare(comparison{"Extension. Temporal systems comparison: Mutual Information (F1)", featsel.MI,
		[]string{"SeqK", "Elman"}})
}

// comparison is a table that sets ProSys beside comparison systems under
// one feature selection.
type comparison struct {
	title     string
	selection featsel.Method
	systems   []string // the comparison systems' labels, after ProSys
}

// compare runs a comparison table: the run's ProSys model of the
// table's selection, and each comparison system trained once per
// category on that model's own selected features.
func (r *Run) compare(t comparison) (*F1Table, error) {
	model, err := r.Model(t.selection)
	if err != nil {
		return nil, err
	}
	set, err := model.Evaluate(r.c.Test)
	if err != nil {
		return nil, err
	}
	table := newF1Table(t.title, append([]string{"ProSys"}, t.systems...), r.c.Categories)
	table.addSystem("ProSys", set)
	for _, label := range t.systems {
		bset, err := evaluateBaseline(label, model.Selection(), r.c, r.p.Seed)
		if err != nil {
			return nil, err
		}
		table.addSystem(label, bset)
	}
	return table, nil
}

// --- Figures ---

// Figure3 renders the word SOM hit grid of a category under the run's
// DF model plus the ordered BMU trace of one document — the Figure 3
// word → BMU mapping view.
func (r *Run) Figure3(category string) (string, error) {
	model, err := r.Model(featsel.DF)
	if err != nil {
		return "", err
	}
	ce := model.Encoder().Category(category)
	if ce == nil {
		return "", fmt.Errorf("category %q not trained", category)
	}
	docs := r.c.TrainFor(category)
	if len(docs) == 0 {
		return "", fmt.Errorf("no documents for %q", category)
	}
	keep := model.Keep(category)
	filtered := corpus.FilterWords(docs[0], keep)
	trace, err := model.Encoder().BMUTrace(category, filtered.Words)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3. Word SOM hit grid for category %q ('*' = selected BMU)\n", category)
	b.WriteString(ce.RenderHitGrid())
	fmt.Fprintf(&b, "Ordered BMU trace of document %s:\n  ", docs[0].ID)
	parts := make([]string, len(trace))
	for i, u := range trace {
		parts[i] = fmt.Sprint(u)
	}
	b.WriteString(strings.Join(parts, " -> "))
	b.WriteByte('\n')
	return b.String(), nil
}

// TraceResult is the outcome of a word-tracking run (Figures 5 and 6).
type TraceResult struct {
	DocID      string
	Categories []string // the document's true labels
	// Traces maps category -> per-word classifier trajectory.
	Traces map[string][]core.TracePoint
	model  *core.Model // the traced model, for its thresholds
}

// Figure5 traces a single-label test document of the target category
// through the run's MI model (the paper's Figure 5 setting).
func (r *Run) Figure5(category string) (*TraceResult, error) {
	doc := findDoc(r.c.Test, func(d *corpus.Document) bool {
		return len(d.Categories) == 1 && d.Categories[0] == category
	})
	if doc == nil {
		return nil, fmt.Errorf("no single-label %q test document", category)
	}
	return r.trace(doc, []string{category})
}

// Figure6 traces a multi-label test document (grain+wheat+trade when
// available) through every one of its label classifiers.
func (r *Run) Figure6() (*TraceResult, error) {
	doc := findDoc(r.c.Test, func(d *corpus.Document) bool { return len(d.Categories) >= 3 })
	if doc == nil {
		doc = findDoc(r.c.Test, func(d *corpus.Document) bool { return len(d.Categories) >= 2 })
	}
	if doc == nil {
		return nil, fmt.Errorf("no multi-label test document")
	}
	return r.trace(doc, doc.Categories)
}

// trace runs the run's MI model's classifiers of cats over a document.
func (r *Run) trace(doc *corpus.Document, cats []string) (*TraceResult, error) {
	model, err := r.Model(featsel.MI)
	if err != nil {
		return nil, err
	}
	res := &TraceResult{
		DocID:      doc.ID,
		Categories: doc.Categories,
		Traces:     make(map[string][]core.TracePoint, len(cats)),
		model:      model,
	}
	for _, cat := range cats {
		tr, err := model.Trace(cat, doc)
		if err != nil {
			return nil, err
		}
		res.Traces[cat] = tr
	}
	return res, nil
}

func findDoc(docs []corpus.Document, pred func(*corpus.Document) bool) *corpus.Document {
	for i := range docs {
		if pred(&docs[i]) {
			return &docs[i]
		}
	}
	return nil
}

// FormatTrace renders a word-tracking trace as an ASCII chart: one line
// per word with the output register value and a bar, underlining (as the
// paper does with colour) the words whose classifier output is in-class.
func FormatTrace(title string, tr *TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nDocument %s, labels %v\n", title, tr.DocID, tr.Categories)
	cats := make([]string, 0, len(tr.Traces))
	for cat := range tr.Traces {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Fprintf(&b, "-- classifier %q --\n", cat)
		for i, p := range tr.Traces[cat] {
			bar := renderBar(p.Output)
			mark := " "
			if p.InClass {
				mark = "*"
			}
			fmt.Fprintf(&b, "%3d %-14s %+0.3f %s %s\n", i+1, p.Word, p.Output, mark, bar)
		}
	}
	return b.String()
}

// TraceChart converts a word-tracking trace into an SVG step chart:
// one series per category over the member-word axis, with each
// category's decision threshold drawn as a dashed reference line.
func TraceChart(title string, tr *TraceResult) *plot.Chart {
	chart := &plot.Chart{
		Title:  title,
		XLabel: "member word",
		YLabel: "output register (squashed)",
		FixedY: true, YMin: -1, YMax: 1,
		Step: true,
	}
	cats := make([]string, 0, len(tr.Traces))
	for cat := range tr.Traces {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		points := tr.Traces[cat]
		s := plot.Series{Name: cat}
		for i, p := range points {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, p.Output)
		}
		chart.Series = append(chart.Series, s)
		if cm := tr.model.CategoryModelFor(cat); cm != nil {
			chart.HLines = append(chart.HLines, cm.Threshold)
		}
	}
	return chart
}

// renderBar draws a 21-character bar for a value in [-1, 1].
func renderBar(v float64) string {
	const half = 10
	pos := int(v * half)
	cells := make([]byte, 2*half+1)
	for i := range cells {
		cells[i] = '.'
	}
	cells[half] = '|'
	switch {
	case pos > 0:
		for i := 1; i <= pos && i <= half; i++ {
			cells[half+i] = '#'
		}
	case pos < 0:
		for i := 1; i <= -pos && i <= half; i++ {
			cells[half-i] = '#'
		}
	}
	return string(cells)
}
