package hsom

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"temporaldoc/internal/corpus"
)

func tinyCfg() Config {
	return Config{
		CharWidth: 5, CharHeight: 5,
		WordWidth: 4, WordHeight: 4,
		CharEpochs: 3, WordEpochs: 5,
		BMUFanout: 3,
		Seed:      1,
	}
}

func trainDocs() map[string][]corpus.Document {
	earn := []corpus.Document{
		{ID: "e1", Words: []string{"profit", "dividend", "profit", "quarter"}, Categories: []string{"earn"}},
		{ID: "e2", Words: []string{"profit", "shares", "dividend"}, Categories: []string{"earn"}},
		{ID: "e3", Words: []string{"dividend", "quarter", "profit"}, Categories: []string{"earn"}},
	}
	grain := []corpus.Document{
		{ID: "g1", Words: []string{"wheat", "tonnes", "harvest", "wheat"}, Categories: []string{"grain"}},
		{ID: "g2", Words: []string{"wheat", "crop", "tonnes"}, Categories: []string{"grain"}},
	}
	return map[string][]corpus.Document{"earn": earn, "grain": grain}
}

func trainedEncoder(t *testing.T) *Encoder {
	t.Helper()
	enc, err := Train(tinyCfg(), trainDocs())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return enc
}

func TestCharInputsEncoding(t *testing.T) {
	got := CharInputs("cost")
	want := [][]float64{{3, 1}, {15, 3}, {19, 5}, {20, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CharInputs(cost) = %v, want %v", got, want)
	}
}

func TestCharInputsCaseAndNoise(t *testing.T) {
	if got, want := CharInputs("AbC"), CharInputs("abc"); !reflect.DeepEqual(got, want) {
		t.Errorf("case sensitivity: %v vs %v", got, want)
	}
	// Non-letters are skipped without advancing the position index.
	if got, want := CharInputs("a-b"), CharInputs("ab"); !reflect.DeepEqual(got, want) {
		t.Errorf("noise handling: %v vs %v", got, want)
	}
	if got := CharInputs(""); len(got) != 0 {
		t.Errorf("CharInputs(\"\") = %v", got)
	}
}

func TestCharInputsRangeBalance(t *testing.T) {
	// Dimension ranges should be comparable (section 5): letters 1..26,
	// positions 1,3,5,... for typical word lengths.
	in := CharInputs("zymurgical") // 10 letters
	for _, v := range in {
		if v[0] < 1 || v[0] > 26 {
			t.Errorf("letter code %v out of range", v[0])
		}
		if v[1] < 1 || v[1] > 19 {
			t.Errorf("position code %v out of range", v[1])
		}
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(tinyCfg(), nil); err == nil {
		t.Error("empty category set accepted")
	}
	if _, err := Train(tinyCfg(), map[string][]corpus.Document{"earn": {}}); err == nil {
		t.Error("empty documents accepted")
	}
	empty := map[string][]corpus.Document{
		"earn": {{ID: "e", Words: nil, Categories: []string{"earn"}}},
	}
	if _, err := Train(tinyCfg(), empty); err == nil {
		t.Error("documents without words accepted")
	}
	// Two word-less categories around a good one, their maps trained
	// concurrently: the error reported is always the first in sorted
	// order, whichever map fails first.
	mixed := trainDocs()
	mixed["acq"] = []corpus.Document{{ID: "a", Categories: []string{"acq"}}}
	mixed["zinc"] = []corpus.Document{{ID: "z", Categories: []string{"zinc"}}}
	for i := 0; i < 20; i++ {
		_, err := Train(tinyCfg(), mixed)
		if err == nil || !strings.Contains(err.Error(), "acq") {
			t.Fatalf("run %d: err = %v, want the error of category acq", i, err)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CharWidth*cfg.CharHeight != 91 {
		t.Errorf("char map units = %d, want 91", cfg.CharWidth*cfg.CharHeight)
	}
	if cfg.WordWidth*cfg.WordHeight != 64 {
		t.Errorf("word map units = %d, want 64", cfg.WordWidth*cfg.WordHeight)
	}
	if cfg.BMUFanout != 3 {
		t.Errorf("fanout = %d, want 3", cfg.BMUFanout)
	}
}

func TestWordVectorDimensionAndMass(t *testing.T) {
	enc := trainedEncoder(t)
	vec := enc.WordVector("profit")
	if len(vec) != enc.CharMap().Units() {
		t.Fatalf("vector dim %d, want %d", len(vec), enc.CharMap().Units())
	}
	// Each of the 6 characters contributes 1 + 1/2 + 1/3 = 11/6.
	var sum float64
	for _, v := range vec {
		sum += v
	}
	want := 6 * (1 + 0.5 + 1.0/3.0)
	if math.Abs(sum-want) > 1e-9 {
		t.Errorf("vector mass = %v, want %v", sum, want)
	}
}

func TestWordVectorSimilarWordsCloser(t *testing.T) {
	enc := trainedEncoder(t)
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	profit := enc.WordVector("profit")
	profits := enc.WordVector("profits")
	wheat := enc.WordVector("wheat")
	if dist(profit, profits) >= dist(profit, wheat) {
		t.Errorf("profit/profits (%v) not closer than profit/wheat (%v)",
			dist(profit, profits), dist(profit, wheat))
	}
}

func TestCategoriesTrained(t *testing.T) {
	enc := trainedEncoder(t)
	if got := enc.Categories(); !reflect.DeepEqual(got, []string{"earn", "grain"}) {
		t.Errorf("Categories = %v", got)
	}
	if enc.Category("earn") == nil || enc.Category("grain") == nil {
		t.Error("category encoders missing")
	}
	if enc.Category("nope") != nil {
		t.Error("unknown category returned an encoder")
	}
}

func TestSelectedBMUsCoverEveryTrainingDoc(t *testing.T) {
	enc := trainedEncoder(t)
	for cat, docs := range trainDocs() {
		ce := enc.Category(cat)
		sel := make(map[int]bool)
		for _, u := range ce.SelectedBMUs() {
			sel[u] = true
		}
		if len(sel) == 0 {
			t.Fatalf("%s: no BMUs selected", cat)
		}
		for _, d := range docs {
			trace, err := enc.BMUTrace(cat, d.Words)
			if err != nil {
				t.Fatal(err)
			}
			covered := false
			for _, u := range trace {
				if sel[u] {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s doc %s not covered by selected BMUs", cat, d.ID)
			}
		}
	}
}

func TestSelectedBMUsAreTopHits(t *testing.T) {
	enc := trainedEncoder(t)
	ce := enc.Category("earn")
	hits := ce.Hits()
	sel := ce.SelectedBMUs()
	for i := 1; i < len(sel); i++ {
		if hits[sel[i-1]] < hits[sel[i]] {
			t.Errorf("selected BMUs not in decreasing hit order: %v (hits %v)", sel, hits)
		}
	}
	if hits[sel[0]] == 0 {
		t.Error("top selected BMU has zero hits")
	}
}

func TestEncodeProducesOrderedCodes(t *testing.T) {
	enc := trainedEncoder(t)
	words := []string{"profit", "dividend", "quarter"}
	codes, err := enc.Encode("earn", words)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(words) {
		t.Fatalf("codes length %d, want %d", len(codes), len(words))
	}
	for i, c := range codes {
		if c.Word != words[i] {
			t.Errorf("code %d word %q, want %q (order violated)", i, c.Word, words[i])
		}
		if c.Member {
			if c.NormIndex < 0 || c.NormIndex > 1 {
				t.Errorf("NormIndex %v out of [0,1]", c.NormIndex)
			}
			if c.Membership <= 0 || c.Membership > 1 {
				t.Errorf("Membership %v out of (0,1]", c.Membership)
			}
		}
	}
}

func TestEncodeTrainingWordsAreMembers(t *testing.T) {
	// Every training word occurrence must pass its own BMU's membership
	// threshold (threshold is the min over training words).
	enc := trainedEncoder(t)
	ce := enc.Category("earn")
	sel := make(map[int]bool)
	for _, u := range ce.SelectedBMUs() {
		sel[u] = true
	}
	for _, d := range trainDocs()["earn"] {
		codes, err := enc.Encode("earn", d.Words)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codes {
			if sel[c.Unit] && !c.Member {
				t.Errorf("training word %q hits selected BMU %d but fails membership", c.Word, c.Unit)
			}
		}
	}
}

func TestEncodeUnknownCategory(t *testing.T) {
	enc := trainedEncoder(t)
	if _, err := enc.Encode("bogus", []string{"x"}); err == nil {
		t.Error("unknown category accepted")
	}
	if _, err := enc.BMUTrace("bogus", []string{"x"}); err == nil {
		t.Error("unknown category accepted by BMUTrace")
	}
}

func TestEncodeEmptyDocument(t *testing.T) {
	enc := trainedEncoder(t)
	codes, err := enc.Encode("earn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 0 {
		t.Errorf("Encode(empty) = %v", codes)
	}
}

func TestBMUTraceStableForSameWord(t *testing.T) {
	enc := trainedEncoder(t)
	trace, err := enc.BMUTrace("earn", []string{"profit", "wheat", "profit"})
	if err != nil {
		t.Fatal(err)
	}
	if trace[0] != trace[2] {
		t.Errorf("same word mapped to different BMUs: %v", trace)
	}
}

func TestGaussianEval(t *testing.T) {
	g := &Gaussian{Mean: []float64{0, 0}, Variance: 1}
	center := g.Eval([]float64{0, 0})
	off := g.Eval([]float64{1, 1})
	if center <= off {
		t.Errorf("Gaussian not peaked at mean: center=%v off=%v", center, off)
	}
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(center-want) > 1e-12 {
		t.Errorf("center value %v, want %v", center, want)
	}
}

func TestGaussianDegenerateVariance(t *testing.T) {
	g := &Gaussian{Mean: []float64{1, 2}, Variance: 0}
	exact := g.Eval([]float64{1, 2})
	if math.IsNaN(exact) || math.IsInf(exact, 0) {
		t.Errorf("degenerate Gaussian at mean = %v", exact)
	}
	away := g.Eval([]float64{5, 5})
	if away >= exact {
		t.Errorf("degenerate Gaussian not decaying: exact=%v away=%v", exact, away)
	}
}

func TestRenderHitGrid(t *testing.T) {
	enc := trainedEncoder(t)
	grid := enc.Category("earn").RenderHitGrid()
	lines := strings.Split(strings.TrimRight(grid, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("grid has %d rows, want 4:\n%s", len(lines), grid)
	}
	if !strings.Contains(grid, "*") {
		t.Errorf("no selected units marked:\n%s", grid)
	}
}

// TestTrainDeterministic requires byte-identical snapshots whether the
// category maps train one at a time (GOMAXPROCS 1), several at once or
// on every core.
func TestTrainDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		runtime.GOMAXPROCS(procs)
		enc, err := Train(tinyCfg(), trainDocs())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(enc.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: snapshot differs from GOMAXPROCS=1", procs)
		}
	}
}
