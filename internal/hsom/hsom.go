// Package hsom implements the paper's hierarchical SOM encoding
// architecture (sections 5 and 6):
//
//   - a first-level 7×13 SOM trained on (character, position) pairs of
//     every character occurrence in the training corpus — a character
//     code-book;
//   - one second-level 8×8 SOM per category, trained on 91-dimensional
//     word vectors built from the three most affected first-level BMUs of
//     each character (contributions 1, 1/2 and 1/3) — a word code-book
//     per category;
//   - per-category selection of the most informative BMUs from the hit
//     histogram (the minimal top-hit set such that every training
//     document of the category still hits at least one selected unit);
//   - a Gaussian membership function per selected BMU, used both to
//     decide whether a word is a member word of the category and as the
//     second dimension of the word representation fed to the classifier.
//
// The encoder turns a document into an ordered sequence of 2-dimensional
// word codes (normalised BMU index, Gaussian membership) — the temporal
// representation the RLGP classifier consumes.
package hsom

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/som"
	"temporaldoc/internal/telemetry"
)

// Config parameterises the two SOM levels. DefaultConfig reproduces the
// paper's geometry.
type Config struct {
	// CharWidth, CharHeight give the first-level map size (paper: 7×13).
	CharWidth, CharHeight int
	// WordWidth, WordHeight give the second-level map size (paper: 8×8).
	WordWidth, WordHeight int
	// CharEpochs and WordEpochs are training passes for each level.
	CharEpochs, WordEpochs int
	// BMUFanout is how many first-level BMUs represent each character
	// (paper: 3, with contributions 1, 1/2, 1/3).
	BMUFanout int
	// Workers bounds how many category word maps Train fits at once.
	// Each fit is one training loop plus the goroutine som.Map.Train
	// runs beside it to compute the step schedule ahead, which Workers
	// does not count, so even Workers 1 can keep two cores busy. Zero
	// means runtime.GOMAXPROCS(0); results are identical for any worker
	// count. It is a runtime knob, not a model parameter, so it is
	// excluded from persisted snapshots.
	Workers int `json:"-"`
	// Metrics, when non-nil, receives encoder telemetry: per-level SOM
	// epoch gauges and word-vector cache hit/miss counters. Diagnostics
	// only — never persisted, never read back, so trained encoders are
	// bit-identical with it on or off.
	Metrics *telemetry.Registry `json:"-"`
	// Epoch, when non-nil, is called after every SOM training epoch of
	// either level with the level ("char" or "word"), the category (""
	// for the character map) and the epoch statistics. Word-map calls
	// arrive concurrently from the per-category training goroutines, so
	// the callback must be safe for concurrent use; diagnostics only.
	// Excluded from snapshots.
	Epoch func(level, category string, s som.EpochStats) `json:"-"`
	// Seed drives weight initialisation at both levels.
	Seed int64
}

// DefaultConfig returns the paper's architecture: 7×13 character map,
// 8×8 word maps, 3-BMU fan-out.
func DefaultConfig() Config {
	return Config{
		CharWidth: 7, CharHeight: 13,
		WordWidth: 8, WordHeight: 8,
		CharEpochs: 5, WordEpochs: 10,
		BMUFanout: 3,
		Seed:      1,
	}
}

func (c *Config) setDefaults() {
	d := DefaultConfig()
	if c.CharWidth <= 0 {
		c.CharWidth = d.CharWidth
	}
	if c.CharHeight <= 0 {
		c.CharHeight = d.CharHeight
	}
	if c.WordWidth <= 0 {
		c.WordWidth = d.WordWidth
	}
	if c.WordHeight <= 0 {
		c.WordHeight = d.WordHeight
	}
	if c.CharEpochs <= 0 {
		c.CharEpochs = d.CharEpochs
	}
	if c.WordEpochs <= 0 {
		c.WordEpochs = d.WordEpochs
	}
	if c.BMUFanout <= 0 {
		c.BMUFanout = d.BMUFanout
	}
}

// CharInputs enumerates the 2-dimensional character inputs of a word:
// the first dimension is the letter code (a=1 … z=26), the second is
// 2·index−1 for the 1-based character index, spreading both dimensions
// over a similar range so neither biases SOM training (section 5).
// Non-letter bytes are skipped (pre-processing removes them anyway).
func CharInputs(word string) [][]float64 {
	out := make([][]float64, 0, len(word))
	pos := 0
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c = c - 'A' + 'a'
		}
		if c < 'a' || c > 'z' {
			continue
		}
		pos++
		out = append(out, []float64{float64(c-'a') + 1, float64(2*pos - 1)})
	}
	return out
}

// WordCode is the classifier-facing representation of one word occurrence
// (section 6.2): the normalised index of the word's BMU on the category
// SOM and its Gaussian membership value. Member reports whether the word
// passed both the BMU-selection and membership filters; non-member words
// carry zero NormIndex/Membership and are skipped by the classifier.
type WordCode struct {
	Word       string
	Unit       int     // BMU index on the category word SOM
	NormIndex  float64 // Unit normalised to [0,1]
	Membership float64 // Gaussian membership, normalised to (0,1] per BMU
	Member     bool
}

// Gaussian is a per-BMU membership function: the mean vector and scalar
// variance of all training word vectors that selected the BMU
// (Figure 4). Values are evaluated as
//
//	G(x) = 1/(σ√2π) · exp(−‖x−M‖² / 2σ²)
type Gaussian struct {
	Mean     []float64
	Variance float64
	// MaxValue is the largest raw G over the BMU's training words; raw
	// values are divided by it so memberships lie in (0,1] regardless of
	// how small σ is (a numerical-stability normalisation; the paper
	// uses the raw value).
	MaxValue float64
	// MinValue is the smallest raw G over the BMU's training words —
	// the paper's membership threshold.
	MinValue float64
}

// Eval returns the raw Gaussian value at x. EvalSparse is the
// bit-identical sparse-input form.
//
//tdlint:hotpath
func (g *Gaussian) Eval(x []float64) float64 {
	var d2 float64
	for i := range g.Mean {
		diff := x[i] - g.Mean[i]
		d2 += diff * diff
	}
	return g.value(d2)
}

// CategoryEncoder is the trained second-level machinery of one category:
// its word SOM, the selected informative BMUs, and a Gaussian membership
// function per selected BMU.
type CategoryEncoder struct {
	Category string
	Map      *som.Map
	selected []int
	gauss    map[int]*Gaussian
	hits     []int // training hit histogram over all units
}

// SelectedBMUs returns the selected (informative) unit indices in
// decreasing training-hit order.
func (ce *CategoryEncoder) SelectedBMUs() []int {
	return append([]int(nil), ce.selected...)
}

// Hits returns the training hit histogram over all units of the map.
func (ce *CategoryEncoder) Hits() []int { return append([]int(nil), ce.hits...) }

// somObserver builds the per-epoch observer for one SOM level,
// forwarding to Config.Epoch and recording registry metrics. Returns
// nil — leaving the SOM's fast uninstrumented path — when telemetry is
// fully disabled.
func (c *Config) somObserver(level, category string) func(som.EpochStats) {
	if c.Epoch == nil && c.Metrics == nil {
		return nil
	}
	// Metric names are constant per level: dynamic names hide the metric
	// namespace from grep and are an unbounded-cardinality hazard.
	var epochs *telemetry.Counter
	var qe, radius *telemetry.Gauge
	var dur telemetry.Timer
	if level == "char" {
		epochs = c.Metrics.Counter("hsom.char.epochs")
		qe = c.Metrics.Gauge("hsom.char.quant_error")
		radius = c.Metrics.Gauge("hsom.char.radius")
		dur = c.Metrics.Timer("hsom.char.epoch.seconds")
	} else {
		epochs = c.Metrics.Counter("hsom.word.epochs")
		qe = c.Metrics.Gauge("hsom.word.quant_error")
		radius = c.Metrics.Gauge("hsom.word.radius")
		dur = c.Metrics.Timer("hsom.word.epoch.seconds")
	}
	cb := c.Epoch
	return func(s som.EpochStats) {
		epochs.Inc()
		qe.Set(s.QuantError)
		radius.Set(s.Radius)
		dur.Observe(s.Duration)
		if cb != nil {
			cb(level, category, s)
		}
	}
}

// encMetrics holds the encoder's pre-resolved metric handles; the zero
// value (nil handles) is the no-op default.
type encMetrics struct {
	wvHit, wvMiss *telemetry.Counter
	// wvStampede counts cold-word computations that would have been
	// duplicated (and their results discarded) without the cache's
	// write-lock recheck — two goroutines racing on the same cold word.
	wvStampede *telemetry.Counter
	// wvFallback counts characters encoded through the live NearestK
	// search instead of the fanout table (positions past the table
	// bound).
	wvFallback *telemetry.Counter
}

func newEncMetrics(reg *telemetry.Registry) encMetrics {
	if reg == nil {
		return encMetrics{}
	}
	return encMetrics{
		wvHit:      reg.Counter("hsom.wordvec.cache.hits"),
		wvMiss:     reg.Counter("hsom.wordvec.cache.misses"),
		wvStampede: reg.Counter("hsom.wordvec.cache.stampede"),
		wvFallback: reg.Counter("hsom.wordvec.fanout.fallback"),
	}
}

// Encoder is the full two-level architecture.
type Encoder struct {
	cfg        Config
	charMap    *som.Map
	categories map[string]*CategoryEncoder
	met        encMetrics

	// fan is the precomputed (letter, position) → top-k-unit table the
	// cold-word path reads instead of searching the char map. Derived
	// from the frozen char map (rebuilt on snapshot load, never
	// persisted); nil forces every character onto the live-search
	// fallback.
	fan *fanoutTable

	// wordVecs caches the (deterministic, charMap-derived) encoding
	// state of every word ever encoded — dense vector plus sparse form
	// — so repeated occurrences (the common case both during
	// category-SOM training and document encoding) cost one map lookup
	// instead of a search per character. Guarded by mu; each entry is
	// filled exactly once under its own sync.Once (see lookupWord).
	mu       sync.RWMutex
	wordVecs map[string]*wordEntry
}

// Train builds the hierarchy from training documents. perCategory maps
// each category name to the training documents whose words feed that
// category's word SOM (already filtered by feature selection). The
// character map is trained on every character of every word of every
// supplied document, repeated as often as it occurs (section 5).
func Train(cfg Config, perCategory map[string][]corpus.Document) (*Encoder, error) {
	cfg.setDefaults()
	if len(perCategory) == 0 {
		return nil, fmt.Errorf("hsom: no categories to train")
	}

	// Level 1: character code-book over the union of all documents.
	// Categories are visited in sorted order: map iteration order would
	// otherwise make the presentation sequence — and the trained map —
	// nondeterministic.
	cats := make([]string, 0, len(perCategory))
	for cat := range perCategory {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	var charInputs [][]float64
	seenDocs := make(map[string]bool)
	for _, cat := range cats {
		for i := range perCategory[cat] {
			d := &perCategory[cat][i]
			if seenDocs[d.ID] {
				continue
			}
			seenDocs[d.ID] = true
			for _, w := range d.Words {
				charInputs = append(charInputs, CharInputs(w)...)
			}
		}
	}
	if len(charInputs) == 0 {
		return nil, fmt.Errorf("hsom: no characters in training documents")
	}
	charMap, err := som.New(som.Config{
		Width: cfg.CharWidth, Height: cfg.CharHeight, Dim: 2,
		Epochs:              cfg.CharEpochs,
		InitialLearningRate: 0.5,
		Seed:                cfg.Seed,
		Observer:            cfg.somObserver("char", ""),
	}, 26)
	if err != nil {
		return nil, fmt.Errorf("hsom: char map: %w", err)
	}
	if err := charMap.Train(charInputs); err != nil {
		return nil, fmt.Errorf("hsom: char map training: %w", err)
	}

	enc := &Encoder{
		cfg:        cfg,
		charMap:    charMap,
		categories: make(map[string]*CategoryEncoder, len(perCategory)),
		met:        newEncMetrics(cfg.Metrics),
	}
	// The char map is frozen from here on; precompute its fanout before
	// the category loop so level-2 training already encodes through it.
	enc.fan = newFanoutTable(charMap, cfg.BMUFanout)

	// Level 2: one word code-book per category. Each map has its own seed
	// (by sorted position) and its own inputs, and shares only the frozen
	// char map and the concurrency-safe word-vector cache, so the maps
	// train concurrently, at most Workers at once, with the same bytes
	// for any worker count.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	ces := make([]*CategoryEncoder, len(cats))
	errs := make([]error, len(cats))
	var wg sync.WaitGroup
	for i, cat := range cats {
		docs := perCategory[cat]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ces[i], errs[i] = enc.trainCategory(cat, docs, cfg.Seed+int64(i)+1)
		}()
	}
	wg.Wait()
	for i, cat := range cats {
		if errs[i] != nil {
			return nil, fmt.Errorf("hsom: category %s: %w", cat, errs[i])
		}
		enc.categories[cat] = ces[i]
	}
	return enc, nil
}

// WordVector builds the 91-dimensional (char-map-unit-count) vector of a
// word: for each character, the three most affected first-level BMUs
// contribute 1, 1/2 and 1/3 to their entries (section 5). Vectors are
// cached per word (the character map is frozen once trained), so the
// returned slice is shared — callers must not modify it.
func (e *Encoder) WordVector(word string) []float64 {
	return e.lookupWord(word).dense
}

// AttachTelemetry points the encoder's runtime metric handles at reg
// (nil detaches). Encoders reconstructed from snapshots start without a
// registry; classification services attach one here. Not safe to call
// concurrently with encoding.
func (e *Encoder) AttachTelemetry(reg *telemetry.Registry) {
	e.cfg.Metrics = reg
	e.met = newEncMetrics(reg)
}

// CharMap exposes the trained first-level map.
func (e *Encoder) CharMap() *som.Map { return e.charMap }

// Category returns the trained encoder of a category, or nil.
func (e *Encoder) Category(cat string) *CategoryEncoder { return e.categories[cat] }

// Categories lists trained category names in sorted order.
func (e *Encoder) Categories() []string {
	out := make([]string, 0, len(e.categories))
	for c := range e.categories {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (e *Encoder) trainCategory(cat string, docs []corpus.Document, seed int64) (*CategoryEncoder, error) {
	// Words are presented as often as they occur and in corpus order
	// (section 5: "as many times as they occur in the category (and in
	// the same order)").
	var wordVecs [][]float64
	docRanges := make([][2]int, len(docs)) // word-vector index range per doc
	for i := range docs {
		start := len(wordVecs)
		for _, w := range docs[i].Words {
			wordVecs = append(wordVecs, e.WordVector(w))
		}
		docRanges[i] = [2]int{start, len(wordVecs)}
	}
	if len(wordVecs) == 0 {
		return nil, fmt.Errorf("no words in training documents")
	}
	wordMap, err := som.New(som.Config{
		Width: e.cfg.WordWidth, Height: e.cfg.WordHeight, Dim: e.charMap.Units(),
		Epochs:              e.cfg.WordEpochs,
		InitialLearningRate: 0.3,
		Seed:                seed,
		Shuffle:             false,
		Observer:            e.cfg.somObserver("word", cat),
	}, 3)
	if err != nil {
		return nil, err
	}
	if err := wordMap.Train(wordVecs); err != nil {
		return nil, err
	}

	// BMU of every training word occurrence. A word's vector is a pure
	// function of the word, so each distinct word is looked up once. A
	// plain loop: Train already keeps the cores busy with one category
	// per goroutine.
	bmus := make([]int, len(wordVecs))
	hits := make([]int, wordMap.Units())
	bmuOf := make(map[string]int)
	i := 0
	for d := range docs {
		for _, w := range docs[d].Words {
			b, ok := bmuOf[w]
			if !ok {
				b = wordMap.BMU(wordVecs[i])
				bmuOf[w] = b
			}
			bmus[i] = b
			hits[b]++
			i++
		}
	}

	selected := selectInformativeBMUs(hits, bmus, docRanges)
	selectedSet := make(map[int]bool, len(selected))
	for _, u := range selected {
		selectedSet[u] = true
	}

	// Gaussian membership per selected BMU (Figure 4). Group occurrence
	// indices by BMU once — the per-unit rescan of every occurrence was
	// O(selected × occurrences). Appending in increasing occurrence order
	// preserves the rescan's member order exactly, so the fitted values
	// are the same bytes.
	byUnit := make([][]int, wordMap.Units())
	for i, b := range bmus {
		if selectedSet[b] {
			byUnit[b] = append(byUnit[b], i)
		}
	}
	gauss := make(map[int]*Gaussian, len(selected))
	for _, u := range selected {
		gauss[u] = fitGaussian(wordVecs, byUnit[u])
	}
	return &CategoryEncoder{
		Category: cat,
		Map:      wordMap,
		selected: selected,
		gauss:    gauss,
		hits:     hits,
	}, nil
}

// selectInformativeBMUs returns units in decreasing hit order, taking
// units until every training document has at least one word occurrence
// whose BMU is in the set (the paper's coverage heuristic, section 6.2).
func selectInformativeBMUs(hits []int, bmus []int, docRanges [][2]int) []int {
	order := make([]int, len(hits))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if hits[order[i]] != hits[order[j]] {
			return hits[order[i]] > hits[order[j]]
		}
		return order[i] < order[j]
	})
	selected := make([]int, 0, 8)
	selectedSet := make(map[int]bool)
	covered := make([]bool, len(docRanges))
	remaining := 0
	for i, r := range docRanges {
		if r[0] == r[1] {
			covered[i] = true // empty doc can never be covered
			continue
		}
		remaining++
	}
	for _, u := range order {
		if remaining == 0 {
			break
		}
		if hits[u] == 0 {
			break
		}
		selected = append(selected, u)
		selectedSet[u] = true
		for i, r := range docRanges {
			if covered[i] {
				continue
			}
			for k := r[0]; k < r[1]; k++ {
				if selectedSet[bmus[k]] {
					covered[i] = true
					remaining--
					break
				}
			}
		}
	}
	return selected
}

// fitGaussian computes the mean vector and scalar variance of the word
// vectors at occurrence indices members (one BMU's training words), plus
// the max/min raw Gaussian values over those words (Figure 4). members
// must be in increasing occurrence order — the accumulation order the
// determinism tests pin.
func fitGaussian(wordVecs [][]float64, members []int) *Gaussian {
	dim := len(wordVecs[0])
	mean := make([]float64, dim)
	for _, i := range members {
		v := wordVecs[i]
		for d := range v {
			mean[d] += v[d]
		}
	}
	for d := range mean {
		mean[d] /= float64(len(members))
	}
	var variance float64
	for _, i := range members {
		v := wordVecs[i]
		var d2 float64
		for d := range v {
			diff := v[d] - mean[d]
			d2 += diff * diff
		}
		variance += d2
	}
	variance /= float64(len(members))
	g := &Gaussian{Mean: mean, Variance: variance}
	g.MaxValue, g.MinValue = math.Inf(-1), math.Inf(1)
	for _, i := range members {
		val := g.Eval(wordVecs[i])
		if val > g.MaxValue {
			g.MaxValue = val
		}
		if val < g.MinValue {
			g.MinValue = val
		}
	}
	return g
}

// Encode maps a document's ordered words onto the category's code-book:
// each word becomes a WordCode. A word is a member word when its BMU is
// one of the selected informative units and its Gaussian membership
// reaches the minimum membership observed among the BMU's training words
// (section 6.2). The classifier consumes only member words, in order.
func (e *Encoder) Encode(cat string, words []string) ([]WordCode, error) {
	ce := e.categories[cat]
	if ce == nil {
		return nil, fmt.Errorf("hsom: category %q not trained", cat)
	}
	units := float64(ce.Map.Units() - 1)
	out := make([]WordCode, 0, len(words))
	for _, w := range words {
		en := e.lookupWord(w)
		u := ce.Map.BMUSparse(en.idx, en.val)
		code := WordCode{Word: w, Unit: u}
		if g, ok := ce.gauss[u]; ok {
			raw := g.EvalSparse(en.idx, en.val)
			if raw >= g.MinValue {
				code.Member = true
				code.NormIndex = float64(u) / units
				code.Membership = raw / g.MaxValue
				if code.Membership > 1 {
					code.Membership = 1
				}
			}
		}
		out = append(out, code)
	}
	return out, nil
}

// BMUTrace returns the ordered BMU indices of a document's words on the
// category map — the Figure 3 view {8 → 1 → 43 → …}.
func (e *Encoder) BMUTrace(cat string, words []string) ([]int, error) {
	ce := e.categories[cat]
	if ce == nil {
		return nil, fmt.Errorf("hsom: category %q not trained", cat)
	}
	out := make([]int, len(words))
	for i, w := range words {
		en := e.lookupWord(w)
		out[i] = ce.Map.BMUSparse(en.idx, en.val)
	}
	return out, nil
}

// RenderHitGrid renders the category map's training hit histogram as an
// ASCII grid with selected units marked by '*' — the Figure 3
// visualisation.
func (ce *CategoryEncoder) RenderHitGrid() string {
	sel := make(map[int]bool, len(ce.selected))
	for _, u := range ce.selected {
		sel[u] = true
	}
	var b strings.Builder
	cfg := ce.Map.Config()
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			u := ce.Map.UnitAt(x, y)
			mark := " "
			if sel[u] {
				mark = "*"
			}
			fmt.Fprintf(&b, "%5d%s", ce.hits[u], mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
