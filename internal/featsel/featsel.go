// Package featsel implements the four feature-selection techniques the
// paper evaluates (section 4, Table 1):
//
//   - Document Frequency (DF): top-N features over the whole corpus by
//     the number of training documents containing the feature.
//   - Information Gain (IG): top-N features over the whole corpus by the
//     entropy decrease due to the presence/absence of the feature
//     (Equation 1; Yang & Pedersen).
//   - Mutual Information (MI): top-K features per category by the
//     interdependence between feature and category (Equation 2).
//   - Frequent Nouns: top-K POS-tagged common nouns per category by
//     in-category frequency.
//
// The paper's selected-feature counts (Table 1) are the package defaults:
// DF 1000, IG 1000, MI 300 per category, Nouns 100 per category.
package featsel

import (
	"fmt"
	"math"
	"sort"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/postag"
)

// Method names a feature-selection technique.
type Method string

// The four techniques of the paper, plus CHI (χ² statistic, the other
// strong selector of Yang & Pedersen's comparison) as an extension.
const (
	DF    Method = "df"
	IG    Method = "ig"
	MI    Method = "mi"
	Nouns Method = "nouns"
	CHI   Method = "chi"
)

// Methods lists the paper's techniques in the paper's order.
func Methods() []Method { return []Method{DF, IG, Nouns, MI} }

// Known reports whether m names a supported feature-selection method.
// Persisted-model loaders use it to reject snapshots whose recorded
// method this build cannot reproduce.
func Known(m Method) bool {
	switch m {
	case DF, IG, MI, Nouns, CHI:
		return true
	}
	return false
}

// AllMethods lists every supported technique, extensions included.
func AllMethods() []Method { return []Method{DF, IG, Nouns, MI, CHI} }

// Config bounds the number of selected features.
type Config struct {
	// GlobalN is the corpus-wide feature budget for DF and IG.
	GlobalN int
	// PerCategoryN is the per-category budget for MI and Nouns.
	PerCategoryN int
}

// DefaultConfig returns the paper's Table 1 budgets for the method.
func DefaultConfig(m Method) Config {
	switch m {
	case DF, IG:
		return Config{GlobalN: 1000}
	case MI, CHI:
		return Config{PerCategoryN: 300}
	case Nouns:
		return Config{PerCategoryN: 100}
	default:
		return Config{}
	}
}

// Selection is the outcome of feature selection. Global methods (DF, IG)
// fill Global; per-category methods (MI, Nouns) fill PerCategory. Scores
// holds the ranking score of every selected feature (keyed by
// "category\x00feature" for per-category methods, or feature alone).
type Selection struct {
	Method      Method
	Global      []string
	PerCategory map[string][]string
}

// IsGlobal reports whether the selection is corpus-wide.
func (s *Selection) IsGlobal() bool { return s.PerCategory == nil }

// KeepFor returns the membership set of selected features relevant to
// category cat: the global set for DF/IG, the category's set for MI/Nouns.
func (s *Selection) KeepFor(cat string) map[string]bool {
	if s.IsGlobal() {
		return setOf(s.Global)
	}
	return setOf(s.PerCategory[cat])
}

// Count returns the total number of (category-scoped) selected features:
// len(Global) for global methods, the sum of per-category list lengths
// otherwise.
func (s *Selection) Count() int {
	if s.IsGlobal() {
		return len(s.Global)
	}
	n := 0
	for _, feats := range s.PerCategory {
		n += len(feats)
	}
	return n
}

func setOf(feats []string) map[string]bool {
	m := make(map[string]bool, len(feats))
	for _, f := range feats {
		m[f] = true
	}
	return m
}

// Select runs the requested technique over the training documents.
// categories is the label inventory (needed by IG, MI and Nouns).
func Select(m Method, train []corpus.Document, categories []string, cfg Config) (*Selection, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("featsel: no training documents")
	}
	switch m {
	case DF:
		if cfg.GlobalN <= 0 {
			return nil, fmt.Errorf("featsel: DF requires GlobalN > 0")
		}
		return selectDF(train, cfg.GlobalN), nil
	case IG:
		if cfg.GlobalN <= 0 {
			return nil, fmt.Errorf("featsel: IG requires GlobalN > 0")
		}
		if len(categories) == 0 {
			return nil, fmt.Errorf("featsel: IG requires categories")
		}
		return selectIG(train, categories, cfg.GlobalN), nil
	case MI:
		if cfg.PerCategoryN <= 0 {
			return nil, fmt.Errorf("featsel: MI requires PerCategoryN > 0")
		}
		if len(categories) == 0 {
			return nil, fmt.Errorf("featsel: MI requires categories")
		}
		return selectMI(train, categories, cfg.PerCategoryN), nil
	case Nouns:
		if cfg.PerCategoryN <= 0 {
			return nil, fmt.Errorf("featsel: Nouns requires PerCategoryN > 0")
		}
		if len(categories) == 0 {
			return nil, fmt.Errorf("featsel: Nouns requires categories")
		}
		return selectNouns(train, categories, cfg.PerCategoryN), nil
	case CHI:
		if cfg.PerCategoryN <= 0 {
			return nil, fmt.Errorf("featsel: CHI requires PerCategoryN > 0")
		}
		if len(categories) == 0 {
			return nil, fmt.Errorf("featsel: CHI requires categories")
		}
		return selectCHI(train, categories, cfg.PerCategoryN), nil
	default:
		return nil, fmt.Errorf("featsel: unknown method %q", m)
	}
}

// scored pairs a feature with its ranking score.
type scored struct {
	feat  string
	score float64
}

// topN sorts by descending score (ties by ascending feature name for
// determinism) and returns the first n feature names. The comparator
// orders on exact score values — an epsilon-tolerant comparator would
// break sort transitivity.
func topN(items []scored, n int) []string {
	sort.Slice(items, func(i, j int) bool {
		if items[i].score > items[j].score {
			return true
		}
		if items[i].score < items[j].score {
			return false
		}
		return items[i].feat < items[j].feat
	})
	if n > len(items) {
		n = len(items)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = items[i].feat
	}
	return out
}

// docFreq counts, for each word, the number of documents containing it.
func docFreq(docs []corpus.Document) map[string]int {
	df := make(map[string]int)
	for i := range docs {
		seen := make(map[string]struct{}, len(docs[i].Words))
		for _, w := range docs[i].Words {
			if _, ok := seen[w]; ok {
				continue
			}
			seen[w] = struct{}{}
			df[w]++
		}
	}
	return df
}

// sortedKeys returns m's keys in lexical order. Score slices are built
// by iterating these, not the map, so their construction order is
// stable run to run.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func selectDF(train []corpus.Document, n int) *Selection {
	df := docFreq(train)
	items := make([]scored, 0, len(df))
	for _, f := range sortedKeys(df) {
		items = append(items, scored{f, float64(df[f])})
	}
	return &Selection{Method: DF, Global: topN(items, n)}
}

// jointCounts returns, per feature, the number of documents of each
// category containing the feature, plus per-category document counts.
func jointCounts(train []corpus.Document, categories []string) (featCat map[string][]int, catDocs []int, df map[string]int) {
	catIdx := make(map[string]int, len(categories))
	for i, c := range categories {
		catIdx[c] = i
	}
	featCat = make(map[string][]int)
	catDocs = make([]int, len(categories))
	df = make(map[string]int)
	for i := range train {
		d := &train[i]
		var idxs []int
		for _, c := range d.Categories {
			if j, ok := catIdx[c]; ok {
				idxs = append(idxs, j)
				catDocs[j]++
			}
		}
		seen := make(map[string]struct{}, len(d.Words))
		for _, w := range d.Words {
			if _, ok := seen[w]; ok {
				continue
			}
			seen[w] = struct{}{}
			df[w]++
			row, ok := featCat[w]
			if !ok {
				row = make([]int, len(categories))
				featCat[w] = row
			}
			for _, j := range idxs {
				row[j]++
			}
		}
	}
	return featCat, catDocs, df
}

// selectIG ranks features by Equation 1. Probabilities are estimated
// from document counts; multi-label documents contribute to every one of
// their categories, and P(Cj) is normalised over label assignments so the
// category prior is a distribution.
func selectIG(train []corpus.Document, categories []string, n int) *Selection {
	featCat, catDocs, df := jointCounts(train, categories)
	nDocs := float64(len(train))
	totalAssign := 0.0
	for _, c := range catDocs {
		totalAssign += float64(c)
	}
	if totalAssign == 0 {
		return &Selection{Method: IG, Global: nil}
	}
	// -sum P(Cj) log P(Cj): constant across features; kept for fidelity
	// to Equation 1 (it shifts every score equally).
	var baseEntropy float64
	for _, c := range catDocs {
		p := float64(c) / totalAssign
		if p > 0 {
			baseEntropy -= p * math.Log2(p)
		}
	}
	items := make([]scored, 0, len(featCat))
	for _, f := range sortedKeys(featCat) {
		row := featCat[f]
		pf := float64(df[f]) / nDocs
		pnf := 1 - pf
		// Conditional label distributions given presence/absence.
		var withF, withoutF float64
		for j, c := range catDocs {
			withF += float64(row[j])
			withoutF += float64(c - row[j])
		}
		var condPresent, condAbsent float64
		if withF > 0 {
			for j := range catDocs {
				p := float64(row[j]) / withF
				if p > 0 {
					condPresent += p * math.Log2(p)
				}
			}
		}
		if withoutF > 0 {
			for j, c := range catDocs {
				p := float64(c-row[j]) / withoutF
				if p > 0 {
					condAbsent += p * math.Log2(p)
				}
			}
		}
		ig := baseEntropy + pf*condPresent + pnf*condAbsent
		items = append(items, scored{f, ig})
	}
	return &Selection{Method: IG, Global: topN(items, n)}
}

// selectMI ranks features per category by Equation 2: the expected
// pointwise mutual information over the four (presence, membership)
// cells. Equation 2 is symmetric — a feature perfectly anti-correlated
// with the category scores as high as a perfect indicator — so, since the
// paper selects features that are "informative for category Cj",
// negatively associated features (P(f,Cj) < P(f)P(Cj)) are ranked below
// all positively associated ones by negating their score.
func selectMI(train []corpus.Document, categories []string, n int) *Selection {
	featCat, catDocs, df := jointCounts(train, categories)
	nDocs := float64(len(train))
	per := make(map[string][]string, len(categories))
	for j, cat := range categories {
		nc := float64(catDocs[j])
		items := make([]scored, 0, len(featCat))
		for _, f := range sortedKeys(featCat) {
			row := featCat[f]
			nf := float64(df[f])
			nfc := float64(row[j])
			score := miScore(nfc, nf, nc, nDocs)
			if nfc*nDocs < nf*nc {
				score = -score
			}
			items = append(items, scored{f, score})
		}
		per[cat] = topN(items, n)
	}
	return &Selection{Method: MI, PerCategory: per}
}

// miScore computes Equation 2 for one (feature, category) pair from
// document counts: nfc docs with both, nf docs with the feature, nc docs
// in the category, n total docs.
func miScore(nfc, nf, nc, n float64) float64 {
	cell := func(joint, pa, pb float64) float64 {
		if joint <= 0 || pa <= 0 || pb <= 0 {
			return 0
		}
		pj := joint / n
		return pj * math.Log2(pj/((pa/n)*(pb/n)))
	}
	var mi float64
	mi += cell(nfc, nf, nc)             // f present, in class
	mi += cell(nf-nfc, nf, n-nc)        // f present, out class
	mi += cell(nc-nfc, n-nf, nc)        // f absent, in class
	mi += cell(n-nf-nc+nfc, n-nf, n-nc) // f absent, out class
	return mi
}

// selectCHI ranks features per category by the χ² statistic of the
// 2×2 (presence, membership) contingency table (Yang & Pedersen). Like
// MI, negatively associated features rank below positive indicators.
func selectCHI(train []corpus.Document, categories []string, n int) *Selection {
	featCat, catDocs, df := jointCounts(train, categories)
	nDocs := float64(len(train))
	per := make(map[string][]string, len(categories))
	for j, cat := range categories {
		nc := float64(catDocs[j])
		items := make([]scored, 0, len(featCat))
		for _, f := range sortedKeys(featCat) {
			row := featCat[f]
			nf := float64(df[f])
			a := float64(row[j]) // f present, in class
			b := nf - a          // f present, out class
			c := nc - a          // f absent, in class
			d := nDocs - nf - c  // f absent, out class
			den := (a + c) * (b + d) * (a + b) * (c + d)
			var chi float64
			if den > 0 {
				diff := a*d - c*b
				chi = nDocs * diff * diff / den
				if a*nDocs < nf*nc {
					chi = -chi
				}
			}
			items = append(items, scored{f, chi})
		}
		per[cat] = topN(items, n)
	}
	return &Selection{Method: CHI, PerCategory: per}
}

// selectNouns ranks, per category, the common nouns (NN/NNS by the Brill
// tagger) of that category's documents by frequency.
func selectNouns(train []corpus.Document, categories []string, n int) *Selection {
	tagger := postag.New()
	per := make(map[string][]string, len(categories))
	for _, cat := range categories {
		freq := make(map[string]int)
		for i := range train {
			if !train[i].HasCategory(cat) {
				continue
			}
			for _, noun := range tagger.Nouns(train[i].Words) {
				freq[noun]++
			}
		}
		items := make([]scored, 0, len(freq))
		for _, f := range sortedKeys(freq) {
			items = append(items, scored{f, float64(freq[f])})
		}
		per[cat] = topN(items, n)
	}
	return &Selection{Method: Nouns, PerCategory: per}
}
