// Package core assembles the paper's full system: pre-processed
// documents flow through feature selection, the hierarchical SOM encoder
// and one recurrent linear-GP classifier per category. It owns the
// ensemble wiring the paper describes in section 8 — per-category binary
// classifiers run in parallel over a document, each with a threshold
// derived from the training-output medians (Equation 6) — plus the
// word-tracking traces of Figures 5 and 6.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/telemetry"
)

// Config parameterises end-to-end training. Zero values take the paper's
// defaults (scaled-down GP budgets are supplied by callers that need
// speed, e.g. tests).
type Config struct {
	// FeatureMethod selects DF, IG, MI or Nouns.
	FeatureMethod featsel.Method
	// FeatureConfig bounds the selected-feature counts; zero takes the
	// paper's Table 1 budget for the method.
	FeatureConfig featsel.Config
	// Encoder configures the hierarchical SOM; zero fields take the
	// paper's geometry (7×13 characters, 8×8 words, 3-BMU fan-out).
	Encoder hsom.Config
	// GP configures the RLGP classifiers; a zero value takes the paper's
	// Table 2 parameters.
	GP lgp.Config
	// Restarts is the number of independent GP initialisations per
	// category; the best rule wins (paper: 20). Zero means 1.
	Restarts int
	// DropMembershipInput zeroes the Gaussian-membership dimension of
	// every word code, leaving only the BMU index — the representation
	// ablation benchmarked in DESIGN.md.
	DropMembershipInput bool
	// Threshold selects how the per-category decision threshold is
	// derived from training outputs: ThresholdMedian (Equation 6, the
	// paper's rule; the default) or ThresholdF1 (the threshold that
	// maximises training F1 — an ablation of the Equation 6 design
	// choice).
	Threshold ThresholdRule
	// Progress, when non-nil, is called as training advances: once when
	// the encoder is ready ("encoder", "") and once per trained category
	// ("category", name). Calls may come from concurrent goroutines; the
	// callback must be safe for concurrent use. New code should prefer
	// Observer, which receives the same milestones (and much more) as
	// typed TrainEvents; Progress is kept as a shim and keeps firing
	// whether or not an Observer is installed.
	Progress func(stage, detail string)
	// Observer, when non-nil, receives typed TrainEvents covering SOM
	// epochs, GP tournaments and training milestones. Events may come
	// from concurrent goroutines. Observers are diagnostics-only: the
	// trained model's bytes are identical with or without one attached.
	Observer Observer
	// Metrics, when non-nil, is the telemetry registry the pipeline
	// records counters, gauges and latency histograms into (metric names
	// are listed in the README). A nil registry costs nothing: every
	// telemetry call no-ops without allocating.
	Metrics *telemetry.Registry
	// Seed drives every stochastic stage.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.FeatureMethod == "" {
		c.FeatureMethod = featsel.DF
	}
	if c.FeatureConfig == (featsel.Config{}) {
		c.FeatureConfig = featsel.DefaultConfig(c.FeatureMethod)
	}
	if c.GP.PopulationSize == 0 {
		c.GP = lgp.DefaultConfig()
	}
	c.GP.NumInputs = 2 // the word-code representation is 2-dimensional
	if c.Restarts <= 0 {
		c.Restarts = 1
	}
	if c.Encoder.Seed == 0 {
		c.Encoder.Seed = c.Seed + 1
	}
}

// ThresholdRule selects the decision-threshold derivation.
type ThresholdRule string

// Supported threshold rules.
const (
	// ThresholdMedian is Equation 6:
	// T = median(median(inClass), median(outClass)). The empty string
	// also selects it.
	ThresholdMedian ThresholdRule = "median"
	// ThresholdF1 sweeps the training outputs for the threshold that
	// maximises training F1.
	ThresholdF1 ThresholdRule = "f1"
)

// CategoryModel is the trained machinery of one category: its evolved
// rule, decision threshold and training fitness.
type CategoryModel struct {
	Category  string
	Program   *lgp.Program
	Threshold float64
	Fitness   float64
	// Restart identifies which initialisation produced the winning rule.
	Restart int
}

// Model is a trained temporal document classifier. Models must not be
// copied after first use (they embed caches and pools); use pointers.
type Model struct {
	cfg       Config
	selection *featsel.Selection
	keepSets  map[string]map[string]bool
	encoder   *hsom.Encoder
	perCat    map[string]*CategoryModel
	cats      []string

	// met holds pre-resolved metric handles so the scoring hot path
	// never pays a registry map lookup; its zero value no-ops.
	met modelMetrics

	// machinePool recycles lgp.Machine instances across Score / Trace /
	// Evaluate calls, so scoring allocates no register files (and usually
	// re-uses an already-decoded program) on the hot path.
	machinePool sync.Pool

	// encMu guards encCache, the per-(category, document) cache of
	// encoded input sequences. Encoding a document — char-map NearestK
	// per character, word-map BMU per word — dominates Score, and
	// Classify/Evaluate re-score the same document once per category, so
	// caching by document identity-plus-content-hash removes all repeat
	// encodes. The cache is cleared wholesale when it would exceed
	// encodeCacheCap entries or encodeCacheBudget retained bytes,
	// bounding memory on streaming workloads. encBytes sums the entries
	// stored since the last clear (a concurrent re-store of one key
	// counts twice, which only clears sooner).
	encMu    sync.RWMutex
	encCache map[encodeKey]encodedDoc
	encBytes int
}

// encodeCacheCap and encodeCacheBudget bound the encode cache by entry
// count and by estimated retained bytes. Exceeding either drops the
// whole cache (cheap, simple, and the steady state of bounded
// evaluation sets never hits it); an entry larger than the budget is
// returned uncached. The byte budget is what stops a few large
// documents from pinning tens of megabytes each.
const (
	encodeCacheCap    = 8192
	encodeCacheBudget = 32 << 20
)

type encodeKey struct {
	cat  string
	id   string
	hash uint64
}

type encodedDoc struct {
	inputs    [][]float64
	words     []string
	positions []int
}

// retainedBytes estimates the heap a cache entry keeps alive: its key
// strings and its slices at full capacity.
func (e encodedDoc) retainedBytes(key encodeKey) int {
	n := len(key.cat) + len(key.id) + 16*cap(e.words) + 8*cap(e.positions) + 24*cap(e.inputs)
	for _, in := range e.inputs {
		n += 8 * cap(in)
	}
	for _, w := range e.words {
		n += len(w)
	}
	return n
}

// wordsHash is FNV-1a over the document's words, so a cache entry can
// never serve a stale encoding if a caller reuses a document ID for
// different content.
func wordsHash(words []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range words {
		for i := 0; i < len(w); i++ {
			h ^= uint64(w[i])
			h *= prime64
		}
		h ^= 0xff // word separator
		h *= prime64
	}
	return h
}

// getMachine returns a pooled machine (or a fresh one).
func (m *Model) getMachine() *lgp.Machine {
	if v := m.machinePool.Get(); v != nil {
		m.met.poolHit.Inc()
		return v.(*lgp.Machine)
	}
	m.met.poolMiss.Inc()
	return lgp.NewMachine(m.cfg.GP.NumRegisters)
}

func (m *Model) putMachine(mac *lgp.Machine) { m.machinePool.Put(mac) }

// TracePoint is the per-word classifier state used by the Figure 5/6
// word-tracking views.
type TracePoint struct {
	// Word is the member word that was input.
	Word string
	// WordIndex is the word's position in the original document (before
	// feature and membership filtering).
	WordIndex int
	// Output is the squashed output-register value after the word.
	Output float64
	// InClass reports Output > the category threshold at this point.
	InClass bool
}

// Train fits the full system on the corpus training split.
func Train(cfg Config, c *corpus.Corpus) (*Model, error) {
	cfg.setDefaults()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	sel, err := featsel.Select(cfg.FeatureMethod, c.Train, c.Categories, cfg.FeatureConfig)
	if err != nil {
		return nil, fmt.Errorf("core: feature selection: %w", err)
	}

	// The word SOM of category Ci trains on the (feature-filtered) words
	// of Ci's own training documents, in order and with repetition
	// (section 5).
	perCategory := make(map[string][]corpus.Document, len(c.Categories))
	keepSets := make(map[string]map[string]bool, len(c.Categories))
	for _, cat := range c.Categories {
		keep := sel.KeepFor(cat)
		inClass := c.TrainFor(cat)
		// Coverage guarantee: when an aggressive (or heavily scaled-down)
		// feature budget leaves a category's training documents empty,
		// widen its keep-set with the category's own most frequent words
		// until every in-class document retains at least one word — the
		// same every-document-covered discipline the paper applies to
		// BMU selection (section 6.2).
		keep = ensureCoverage(keep, inClass)
		keepSets[cat] = keep
		var docs []corpus.Document
		for _, d := range inClass {
			fd := corpus.FilterWords(d, keep)
			if len(fd.Words) > 0 {
				docs = append(docs, fd)
			}
		}
		if len(docs) == 0 {
			return nil, fmt.Errorf("core: category %q has no training words after feature selection", cat)
		}
		perCategory[cat] = docs
	}
	// Thread the telemetry sinks into the encoder; the hooks are
	// read-only observers, so training results are unaffected.
	if cfg.Encoder.Metrics == nil {
		cfg.Encoder.Metrics = cfg.Metrics
	}
	if cfg.Encoder.Epoch == nil {
		cfg.Encoder.Epoch = cfg.somEpochHook()
	}
	encSpan := cfg.Metrics.Timer("core.encoder.train.seconds").Start()
	var encStart time.Time
	if cfg.Observer != nil {
		encStart = time.Now()
	}
	encoder, err := hsom.Train(cfg.Encoder, perCategory)
	if err != nil {
		return nil, fmt.Errorf("core: encoder: %w", err)
	}
	encSpan.End()
	var encDur time.Duration
	if cfg.Observer != nil {
		encDur = time.Since(encStart)
	}
	cfg.emit(TrainEvent{Kind: EventEncoderReady, Duration: encDur})

	m := &Model{
		cfg:       cfg,
		selection: sel,
		keepSets:  keepSets,
		encoder:   encoder,
		perCat:    make(map[string]*CategoryModel, len(c.Categories)),
		cats:      append([]string(nil), c.Categories...),
		met:       newModelMetrics(cfg.Metrics),
	}

	// The per-category classifiers are independent (section 8), so every
	// category trains at once; GOMAXPROCS bounds how many run in parallel.
	catTimer := cfg.Metrics.Timer("core.category.train.seconds")
	catCount := cfg.Metrics.Counter("core.categories.trained")
	observing := cfg.Observer != nil || cfg.Progress != nil
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, cat := range c.Categories {
		wg.Add(1)
		go func(cat string) {
			defer wg.Done()
			catSpan := catTimer.Start()
			var catStart time.Time
			if observing {
				catStart = time.Now()
			}
			cm, err := m.trainCategory(cat, c.Train)
			catSpan.End()
			if err == nil {
				catCount.Inc()
				if observing {
					cfg.emit(TrainEvent{
						Kind:      EventCategoryTrained,
						Category:  cat,
						Restart:   cm.Restart,
						Fitness:   cm.Fitness,
						Threshold: cm.Threshold,
						Duration:  time.Since(catStart),
					})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("core: category %s: %w", cat, err)
				}
				return
			}
			m.perCat[cat] = cm
		}(cat)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

// encode turns a document into the category's RLGP input sequence:
// ordered (NormIndex, Membership) pairs of its member words, plus the
// member words themselves and their positions in the original document.
func (m *Model) encode(cat string, doc *corpus.Document) ([][]float64, []string, []int, error) {
	keep := m.keepSets[cat]
	filteredWords := make([]string, 0, len(doc.Words))
	origIdx := make([]int, 0, len(doc.Words))
	for i, w := range doc.Words {
		if keep[w] {
			filteredWords = append(filteredWords, w)
			origIdx = append(origIdx, i)
		}
	}
	codes, err := m.encoder.Encode(cat, filteredWords)
	if err != nil {
		return nil, nil, nil, err
	}
	// Only member words are kept, and the encode cache keeps these
	// slices at their capacity, so size them to the members exactly.
	members := 0
	for _, code := range codes {
		if code.Member {
			members++
		}
	}
	inputs := make([][]float64, 0, members)
	words := make([]string, 0, members)
	positions := make([]int, 0, members)
	for k, code := range codes {
		if !code.Member {
			continue
		}
		inputs = append(inputs, m.input(code))
		words = append(words, code.Word)
		positions = append(positions, origIdx[k])
	}
	return inputs, words, positions, nil
}

// input is a member word's RLGP input: its normalised BMU index and its
// Gaussian membership, or 0 in place of the membership under
// DropMembershipInput.
func (m *Model) input(code hsom.WordCode) []float64 {
	if m.cfg.DropMembershipInput {
		return []float64{code.NormIndex, 0}
	}
	return []float64{code.NormIndex, code.Membership}
}

// encodeCached is encode behind the per-(category, document) cache used
// on the scoring path. The returned slices are shared cache state —
// callers must treat them as read-only.
func (m *Model) encodeCached(cat string, doc *corpus.Document) ([][]float64, []string, []int, error) {
	key := encodeKey{cat: cat, id: doc.ID, hash: wordsHash(doc.Words)}
	m.encMu.RLock()
	e, ok := m.encCache[key]
	m.encMu.RUnlock()
	if ok {
		m.met.encHit.Inc()
		return e.inputs, e.words, e.positions, nil
	}
	m.met.encMiss.Inc()
	inputs, words, positions, err := m.encode(cat, doc)
	if err != nil {
		return nil, nil, nil, err
	}
	e = encodedDoc{inputs: inputs, words: words, positions: positions}
	size := e.retainedBytes(key)
	if size > encodeCacheBudget {
		return inputs, words, positions, nil
	}
	m.encMu.Lock()
	if m.encCache == nil || len(m.encCache) >= encodeCacheCap || m.encBytes+size > encodeCacheBudget {
		m.encCache = make(map[encodeKey]encodedDoc)
		m.encBytes = 0
	}
	m.encBytes += size
	m.encCache[key] = e
	m.encMu.Unlock()
	return inputs, words, positions, nil
}

func (m *Model) trainCategory(cat string, train []corpus.Document) (*CategoryModel, error) {
	// A word's code is a pure function of (category, word), so the keep
	// vocabulary is encoded once and each document's inputs are looked
	// up word by word: the inputs encode would build, without an encode
	// of every document.
	keep := m.keepSets[cat]
	vocab := make([]string, 0, len(keep))
	for w := range keep {
		vocab = append(vocab, w)
	}
	sort.Strings(vocab)
	codes, err := m.encoder.Encode(cat, vocab)
	if err != nil {
		return nil, err
	}
	inputOf := make(map[string][]float64, len(codes))
	for _, code := range codes {
		if !code.Member {
			continue
		}
		inputOf[code.Word] = m.input(code)
	}
	examples := make([]lgp.Example, 0, len(train))
	for i := range train {
		// Documents share each word's input slice; lgp only reads them.
		var inputs [][]float64
		for _, w := range train[i].Words {
			if in, ok := inputOf[w]; ok {
				inputs = append(inputs, in)
			}
		}
		label := -1.0
		if train[i].HasCategory(cat) {
			label = 1.0
		}
		examples = append(examples, lgp.Example{Inputs: inputs, Label: label})
	}

	var best *lgp.Result
	bestRestart := 0
	for r := 0; r < m.cfg.Restarts; r++ {
		gpCfg := m.cfg.GP
		gpCfg.Seed = m.cfg.Seed + int64(r)*7919 + int64(len(cat))*104729
		gpCfg.Trace = m.gpTraceHook(cat, r)
		trainer, err := lgp.NewTrainer(gpCfg, examples)
		if err != nil {
			return nil, err
		}
		res := trainer.Run()
		if best == nil || res.Fitness < best.Fitness {
			best, bestRestart = res, r
		}
	}

	machine := m.getMachine()
	defer m.putMachine(machine)
	outs := make([]float64, len(examples))
	for i := range examples {
		outs[i] = m.runExample(machine, best.Best, examples[i].Inputs)
	}
	var threshold float64
	if m.cfg.Threshold == ThresholdF1 {
		labels := make([]bool, len(examples))
		for i := range examples {
			labels[i] = examples[i].Label > 0
		}
		threshold = metrics.BestF1Threshold(outs, labels)
	} else {
		// Equation 6: T = median(median(inClass), median(outClass)) over
		// the raw training outputs.
		var inOuts, outOuts []float64
		for i := range examples {
			if examples[i].Label > 0 {
				inOuts = append(inOuts, outs[i])
			} else {
				outOuts = append(outOuts, outs[i])
			}
		}
		threshold = median([]float64{median(inOuts), median(outOuts)})
	}
	return &CategoryModel{
		Category:  cat,
		Program:   best.Best,
		Threshold: threshold,
		Fitness:   best.Fitness,
		Restart:   bestRestart,
	}, nil
}

// runExample scores one encoded document with the machine's register
// file, once per (program, document) pair in the evolution loop.
//
//tdlint:hotpath
func (m *Model) runExample(machine *lgp.Machine, p *lgp.Program, inputs [][]float64) float64 {
	if m.cfg.GP.Recurrent {
		return machine.RunSequence(p, inputs)
	}
	return machine.RunSequenceNonRecurrent(p, inputs)
}

// ensureCoverage widens keep with the in-class documents' most frequent
// words (ties broken alphabetically) until every document retains at
// least one kept word. The input map is not mutated.
func ensureCoverage(keep map[string]bool, inClass []corpus.Document) map[string]bool {
	covered := func(d *corpus.Document, k map[string]bool) bool {
		for _, w := range d.Words {
			if k[w] {
				return true
			}
		}
		return len(d.Words) == 0 // empty documents can never be covered
	}
	allCovered := true
	for i := range inClass {
		if !covered(&inClass[i], keep) {
			allCovered = false
			break
		}
	}
	if allCovered {
		return keep
	}
	out := make(map[string]bool, len(keep))
	for w := range keep {
		out[w] = true
	}
	freq := make(map[string]int)
	for i := range inClass {
		for _, w := range inClass[i].Words {
			freq[w]++
		}
	}
	type wc struct {
		w string
		c int
	}
	ranked := make([]wc, 0, len(freq))
	for w, c := range freq {
		ranked = append(ranked, wc{w, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].w < ranked[j].w
	})
	for _, r := range ranked {
		if out[r.w] {
			continue
		}
		out[r.w] = true
		done := true
		for i := range inClass {
			if !covered(&inClass[i], out) {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return out
}

// Keep returns the effective per-category keep-set the model filters
// documents with (the feature selection plus any coverage fallback).
func (m *Model) Keep(cat string) map[string]bool {
	out := make(map[string]bool, len(m.keepSets[cat]))
	for w := range m.keepSets[cat] {
		out[w] = true
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Categories lists the trained category names.
func (m *Model) Categories() []string { return append([]string(nil), m.cats...) }

// CategoryModelFor returns the trained per-category machinery, or nil.
func (m *Model) CategoryModelFor(cat string) *CategoryModel { return m.perCat[cat] }

// Selection exposes the feature selection the model was trained with.
func (m *Model) Selection() *featsel.Selection { return m.selection }

// FeatureMethod returns the feature-selection method the model was
// trained with (and a persisted snapshot records in its header).
func (m *Model) FeatureMethod() featsel.Method { return m.cfg.FeatureMethod }

// Encoder exposes the trained hierarchical SOM encoder.
func (m *Model) Encoder() *hsom.Encoder { return m.encoder }

// Rule returns the evolved classification rule of a category in the
// paper's "R1=R1-I1; ..." notation.
func (m *Model) Rule(cat string) (string, error) {
	cm := m.perCat[cat]
	if cm == nil {
		return "", fmt.Errorf("core: category %q not trained", cat)
	}
	return cm.Program.Disassemble(m.cfg.GP.NumRegisters, m.cfg.GP.NumInputs), nil
}

// SimplifiedRule returns the evolved rule with structural introns
// removed (behaviour-preserving; see lgp.Program.Simplify), in the
// paper's notation.
func (m *Model) SimplifiedRule(cat string) (string, error) {
	cm := m.perCat[cat]
	if cm == nil {
		return "", fmt.Errorf("core: category %q not trained", cat)
	}
	s := cm.Program.Simplify(m.cfg.GP.NumRegisters, m.cfg.GP.Recurrent)
	return s.Disassemble(m.cfg.GP.NumRegisters, m.cfg.GP.NumInputs), nil
}

// Score runs the document through one category's classifier and returns
// the squashed output-register value.
func (m *Model) Score(cat string, doc *corpus.Document) (float64, error) {
	cm := m.perCat[cat]
	if cm == nil {
		return 0, fmt.Errorf("core: category %q not trained", cat)
	}
	sp := m.met.scoreLat.Start()
	inputs, _, _, err := m.encodeCached(cat, doc)
	if err != nil {
		return 0, err
	}
	machine := m.getMachine()
	out := m.runExample(machine, cm.Program, inputs)
	m.putMachine(machine)
	sp.End()
	return out, nil
}

// Classify runs the document through every category classifier in
// parallel (as the paper does) and returns the categories whose output
// exceeds their thresholds, in the corpus inventory order. Multi-label
// documents naturally receive multiple categories.
func (m *Model) Classify(doc *corpus.Document) ([]string, error) {
	sp := m.met.classifyLat.Start()
	defer sp.End()
	var out []string
	for _, cat := range m.cats {
		score, err := m.Score(cat, doc)
		if err != nil {
			return nil, err
		}
		if score > m.perCat[cat].Threshold {
			out = append(out, cat)
		}
	}
	return out, nil
}

// Prediction is one category's decision for a document, as produced by
// ClassifyDoc: the raw squashed output-register value and whether it
// clears the category's threshold.
type Prediction struct {
	Category string
	Score    float64
	InClass  bool
}

// ClassifyDoc scores the document against every trained category in the
// corpus inventory order, appending one Prediction per category to out
// and returning the extended slice. It is the serving layer's entry
// point: safe for concurrent use (scoring is read-only on the model,
// the encode cache is lock-guarded and machines come from the pool) and
// allocation-free on the hot path when cap(out)-len(out) is at least
// the category count — callers reuse the slice across requests.
//
//tdlint:hotpath
func (m *Model) ClassifyDoc(doc *corpus.Document, out []Prediction) ([]Prediction, error) {
	sp := m.met.classifyLat.Start()
	for _, cat := range m.cats {
		score, err := m.Score(cat, doc)
		if err != nil {
			return out, err
		}
		out = append(out, Prediction{
			Category: cat,
			Score:    score,
			InClass:  score > m.perCat[cat].Threshold,
		})
	}
	sp.End()
	return out, nil
}

// Trace returns the per-word classifier trajectory of a document under
// one category's classifier — the Figure 5 view. Only member words
// appear (non-member words do not reach the classifier).
func (m *Model) Trace(cat string, doc *corpus.Document) ([]TracePoint, error) {
	cm := m.perCat[cat]
	if cm == nil {
		return nil, fmt.Errorf("core: category %q not trained", cat)
	}
	inputs, words, positions, err := m.encodeCached(cat, doc)
	if err != nil {
		return nil, err
	}
	machine := m.getMachine()
	outs := machine.Trace(cm.Program, inputs)
	m.putMachine(machine)
	points := make([]TracePoint, len(outs))
	for i := range outs {
		points[i] = TracePoint{
			Word:      words[i],
			WordIndex: positions[i],
			Output:    outs[i],
			InClass:   outs[i] > cm.Threshold,
		}
	}
	return points, nil
}

// TraceAll returns per-category traces for a document — the Figure 6
// multi-label word-tracking view, keyed by category.
func (m *Model) TraceAll(doc *corpus.Document) (map[string][]TracePoint, error) {
	out := make(map[string][]TracePoint, len(m.cats))
	for _, cat := range m.cats {
		tr, err := m.Trace(cat, doc)
		if err != nil {
			return nil, err
		}
		out[cat] = tr
	}
	return out, nil
}

// Evaluate scores the model over documents, producing per-category
// contingency tables (Tables 4–6 inputs). Documents are classified on
// GOMAXPROCS goroutines (classification is read-only on the model);
// aggregation is deterministic.
func (m *Model) Evaluate(docs []corpus.Document) (*metrics.Set, error) {
	workers := min(runtime.GOMAXPROCS(0), len(docs))
	type result struct {
		predicted map[string]bool
		err       error
	}
	results := make([]result, len(docs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				predicted, err := m.Classify(&docs[i])
				m.met.evaluatedDocs.Inc()
				if err != nil {
					results[i] = result{err: err}
					continue
				}
				predSet := make(map[string]bool, len(predicted))
				for _, p := range predicted {
					predSet[p] = true
				}
				results[i] = result{predicted: predSet}
			}
		}()
	}
	for i := range docs {
		next <- i
	}
	close(next)
	wg.Wait()

	set := metrics.NewSet()
	for i := range docs {
		if results[i].err != nil {
			return nil, results[i].err
		}
		for _, cat := range m.cats {
			set.Observe(cat, docs[i].HasCategory(cat), results[i].predicted[cat])
		}
	}
	return set, nil
}
