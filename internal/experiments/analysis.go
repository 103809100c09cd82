package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
)

// OverlapMatrix holds pairwise category vocabulary similarities — the
// paper attributes ProSys's money-fx/interest confusion to "heavily
// overlapped" word co-occurrences between the two categories.
type OverlapMatrix struct {
	Categories []string
	// Cosine[i][j] is the cosine similarity of the two categories'
	// term-frequency vectors.
	Cosine [][]float64
}

// CategoryOverlap computes the pairwise cosine similarity of category
// term-frequency vectors over the training split.
func CategoryOverlap(c *corpus.Corpus) *OverlapMatrix {
	freqs := make([]map[string]float64, len(c.Categories))
	for i, cat := range c.Categories {
		f := make(map[string]float64)
		for _, d := range c.TrainFor(cat) {
			for _, w := range d.Words {
				f[w]++
			}
		}
		freqs[i] = f
	}
	// Accumulate over a sorted vocabulary, not map order: float sums
	// depend on addition order, and the similarities feed reported
	// numbers that must not vary run to run.
	words := make([][]string, len(freqs))
	for i, f := range freqs {
		ws := make([]string, 0, len(f))
		for w := range f {
			ws = append(ws, w)
		}
		sort.Strings(ws)
		words[i] = ws
	}
	m := &OverlapMatrix{
		Categories: append([]string(nil), c.Categories...),
		Cosine:     make([][]float64, len(c.Categories)),
	}
	norms := make([]float64, len(freqs))
	for i := range freqs {
		var s float64
		for _, w := range words[i] {
			v := freqs[i][w]
			s += v * v
		}
		norms[i] = math.Sqrt(s)
	}
	for i := range freqs {
		m.Cosine[i] = make([]float64, len(freqs))
		for j := range freqs {
			if norms[i] == 0 || norms[j] == 0 {
				continue
			}
			var dot float64
			for _, w := range words[i] {
				dot += freqs[i][w] * freqs[j][w]
			}
			m.Cosine[i][j] = dot / (norms[i] * norms[j])
		}
	}
	return m
}

// Pair returns the cosine similarity between two categories (0 when
// either is unknown).
func (m *OverlapMatrix) Pair(a, b string) float64 {
	ia, ib := -1, -1
	for i, cat := range m.Categories {
		if cat == a {
			ia = i
		}
		if cat == b {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return 0
	}
	return m.Cosine[ia][ib]
}

// Format renders the overlap matrix with short headers.
func (m *OverlapMatrix) Format() string {
	var b strings.Builder
	b.WriteString("Category vocabulary overlap (cosine of term-frequency vectors)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, cat := range m.Categories {
		fmt.Fprintf(&b, " %6s", abbrev(cat))
	}
	b.WriteByte('\n')
	for i, cat := range m.Categories {
		fmt.Fprintf(&b, "%-10s", cat)
		for j := range m.Categories {
			fmt.Fprintf(&b, " %6.2f", m.Cosine[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func abbrev(s string) string {
	if len(s) > 6 {
		return s[:6]
	}
	return s
}

// ConfusionMatrix counts, for each true category, how documents of that
// category are labelled by every binary classifier: Rate[i][j] is the
// fraction of test documents truly in category i that classifier j
// accepts. High off-diagonal rates reproduce the paper's observation
// that money-fx and interest documents are "consistently categorised
// into one category".
type ConfusionMatrix struct {
	Categories []string
	Rate       [][]float64
	Support    []int
}

// Confusion evaluates the cross-classification rates of the run's MI
// model on the test split.
func (r *Run) Confusion() (*ConfusionMatrix, error) {
	model, err := r.Model(featsel.MI)
	if err != nil {
		return nil, err
	}
	cats := model.Categories()
	idx := make(map[string]int, len(cats))
	for i, cat := range cats {
		idx[cat] = i
	}
	cm := &ConfusionMatrix{
		Categories: cats,
		Rate:       make([][]float64, len(cats)),
		Support:    make([]int, len(cats)),
	}
	counts := make([][]int, len(cats))
	for i := range counts {
		counts[i] = make([]int, len(cats))
		cm.Rate[i] = make([]float64, len(cats))
	}
	for i := range r.c.Test {
		doc := &r.c.Test[i]
		predicted, err := model.Classify(doc)
		if err != nil {
			return nil, err
		}
		for _, trueCat := range doc.Categories {
			ti, ok := idx[trueCat]
			if !ok {
				continue
			}
			cm.Support[ti]++
			for _, p := range predicted {
				counts[ti][idx[p]]++
			}
		}
	}
	for i := range counts {
		if cm.Support[i] == 0 {
			continue
		}
		for j := range counts[i] {
			cm.Rate[i][j] = float64(counts[i][j]) / float64(cm.Support[i])
		}
	}
	return cm, nil
}

// Format renders the confusion matrix (rows: true category; columns:
// accepting classifier).
func (cm *ConfusionMatrix) Format() string {
	var b strings.Builder
	b.WriteString("Cross-classification rates (row: true category, column: accepting classifier)\n")
	fmt.Fprintf(&b, "%-10s %4s", "", "n")
	for _, cat := range cm.Categories {
		fmt.Fprintf(&b, " %6s", abbrev(cat))
	}
	b.WriteByte('\n')
	for i, cat := range cm.Categories {
		fmt.Fprintf(&b, "%-10s %4d", cat, cm.Support[i])
		for j := range cm.Categories {
			fmt.Fprintf(&b, " %6.2f", cm.Rate[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
