package hsom

import (
	"math"
	"reflect"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/reuters"
)

func TestParseKernel(t *testing.T) {
	for name, want := range map[string]Kernel{
		"":        KernelFloat64,
		"float64": KernelFloat64,
		"float32": KernelFloat32,
	} {
		got, err := ParseKernel(name)
		if err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"float16", "legacy"} {
		if _, err := ParseKernel(name); err == nil {
			t.Errorf("ParseKernel accepted the unknown kernel %q", name)
		}
	}
	if err := trainedEncoder(t).SetKernel("float16"); err == nil {
		t.Error("SetKernel accepted an unknown kernel")
	}
}

// encodeAll encodes every train-doc word against every category under
// the encoder's current kernel.
func encodeAll(t *testing.T, enc *Encoder) map[string][]WordCode {
	t.Helper()
	words := []string{
		"profit", "dividend", "quarter", "shares", "wheat", "tonnes",
		"harvest", "crop", "unseen", "zzzz",
	}
	out := make(map[string][]WordCode)
	for _, cat := range enc.Categories() {
		codes, err := enc.Encode(cat, words)
		if err != nil {
			t.Fatalf("Encode %s: %v", cat, err)
		}
		out[cat] = codes
	}
	return out
}

// denseEncode is the reference encoder the production kernels are
// proven against: Encode's membership rule over a full dense level-2
// sweep (Map.BMU) and a dense Gaussian evaluation (Gaussian.Eval) of
// each word's dense char-map vector.
func denseEncode(enc *Encoder, cat string, words []string) []WordCode {
	ce := enc.Category(cat)
	units := float64(ce.Map.Units() - 1)
	out := make([]WordCode, 0, len(words))
	for _, w := range words {
		x := enc.WordVector(w)
		u := ce.Map.BMU(x)
		code := WordCode{Word: w, Unit: u}
		if g, ok := ce.gauss[u]; ok {
			if raw := g.Eval(x); raw >= g.MinValue {
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
	return out
}

// corpusEncoder trains an encoder on the synthetic corpus at the scale
// and seed of core's test fixture (every category, unfiltered training
// words, core's test geometry) and returns it with every distinct word
// of the corpus, train and test split, in first-seen order.
func corpusEncoder(t *testing.T) (*Encoder, []string) {
	t.Helper()
	gen := reuters.DefaultGenConfig()
	gen.Scale = 0.01
	gen.Seed = 11
	c, err := reuters.GenerateCorpus(gen)
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	perCategory := make(map[string][]corpus.Document, len(c.Categories))
	for _, cat := range c.Categories {
		perCategory[cat] = c.TrainFor(cat)
	}
	enc, err := Train(Config{
		CharWidth: 5, CharHeight: 5,
		WordWidth: 4, WordHeight: 4,
		CharEpochs: 2, WordEpochs: 4,
		BMUFanout: 3,
		Seed:      3,
	}, perCategory)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	seen := map[string]bool{}
	var words []string
	for _, split := range [][]corpus.Document{c.Train, c.Test} {
		for _, d := range split {
			for _, w := range d.Words {
				if !seen[w] {
					seen[w] = true
					words = append(words, w)
				}
			}
		}
	}
	return enc, words
}

// TestEncodeKernelParity is the byte-identity wall of the default
// kernel: in every category, over every distinct corpus word, Encode
// must produce exactly the word codes denseEncode does — units, member
// flags, and the bits of every index and membership. Word codes are
// computed per word, so this covers every document any model built on
// this encoder classifies.
func TestEncodeKernelParity(t *testing.T) {
	enc, words := corpusEncoder(t)
	if enc.Kernel() != KernelFloat64 {
		t.Fatalf("default kernel = %v", enc.Kernel())
	}
	if len(enc.Categories()) < 2 || len(words) < 100 {
		t.Fatalf("fixture too small: %d categories, %d words", len(enc.Categories()), len(words))
	}
	members := 0
	for _, cat := range enc.Categories() {
		got, err := enc.Encode(cat, words)
		if err != nil {
			t.Fatalf("Encode %s: %v", cat, err)
		}
		want := denseEncode(enc, cat, words)
		for i := range want {
			g, w := got[i], want[i]
			if g.Word != w.Word || g.Unit != w.Unit || g.Member != w.Member ||
				math.Float64bits(g.NormIndex) != math.Float64bits(w.NormIndex) ||
				math.Float64bits(g.Membership) != math.Float64bits(w.Membership) {
				t.Fatalf("%s %q: Encode %+v, dense reference %+v", cat, w.Word, g, w)
			}
			if w.Member {
				members++
			}
		}
	}
	if members == 0 {
		t.Fatal("no word is a member anywhere: the membership path went untested")
	}
	t.Logf("%d words x %d categories bit-identical, %d member codes", len(words), len(enc.Categories()), members)
}

// TestEvalSparseMatchesEval checks the sparse Gaussian evaluation is
// bit-identical to the dense one on real cached word entries.
func TestEvalSparseMatchesEval(t *testing.T) {
	enc := trainedEncoder(t)
	for _, cat := range enc.Categories() {
		ce := enc.Category(cat)
		for _, g := range ce.gauss {
			for _, w := range []string{"profit", "wheat", "unseen", "1234"} {
				en := enc.lookupWord(w)
				want := g.Eval(en.dense)
				got := g.EvalSparse(en.idx, en.val)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %q: EvalSparse %x, Eval %x", cat, w,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestFloat32KernelEncode checks the opt-in float32 kernel encodes
// deterministically, only ever differs from float64 in BMU choice (the
// membership maths stays float64), and builds its weight views lazily
// but exactly once.
func TestFloat32KernelEncode(t *testing.T) {
	enc := trainedEncoder(t)
	base := encodeAll(t, enc)
	if err := enc.SetKernel(KernelFloat32); err != nil {
		t.Fatal(err)
	}
	if enc.Kernel() != KernelFloat32 {
		t.Fatalf("kernel = %v after SetKernel(float32)", enc.Kernel())
	}
	for _, cat := range enc.Categories() {
		if enc.Category(cat).k32 == nil {
			t.Fatalf("category %s has no float32 view", cat)
		}
	}
	a := encodeAll(t, enc)
	b := encodeAll(t, enc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("float32 kernel is nondeterministic")
	}
	for cat, codes := range a {
		for i, c := range codes {
			if c.Unit == base[cat][i].Unit {
				// Same BMU ⇒ the whole code must match float64 bit-for-bit:
				// membership is evaluated by the same float64 kernel.
				if !reflect.DeepEqual(c, base[cat][i]) {
					t.Fatalf("%s %q: same BMU but different code: %+v vs %+v",
						cat, c.Word, c, base[cat][i])
				}
			}
		}
	}
	// Switching back restores the default path.
	if err := enc.SetKernel(""); err != nil {
		t.Fatal(err)
	}
	if got := encodeAll(t, enc); !reflect.DeepEqual(got, base) {
		t.Fatal("switching back to float64 did not restore baseline output")
	}
}

// TestEncodeKernelsZeroAlloc is the //tdlint:hotpath no-alloc contract
// of the steady-state encode path: warm cache lookup, sparse BMU sweep
// (both precisions) and sparse membership must not allocate.
func TestEncodeKernelsZeroAlloc(t *testing.T) {
	enc := trainedEncoder(t)
	if err := enc.SetKernel(KernelFloat32); err != nil {
		t.Fatal(err)
	}
	if err := enc.SetKernel(KernelFloat64); err != nil {
		t.Fatal(err)
	}
	cat := enc.Categories()[0]
	ce := enc.Category(cat)
	var g *Gaussian
	for _, cand := range ce.gauss {
		g = cand
		break
	}
	if g == nil {
		t.Fatal("no gaussian on first category")
	}
	en := enc.lookupWord("profit") // warm the cache
	sink := 0
	var fsink float64
	if n := testing.AllocsPerRun(100, func() {
		en = enc.lookupWord("profit")
	}); n != 0 {
		t.Errorf("warm lookupWord allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink += enc.bmuFor(ce, en)
	}); n != 0 {
		t.Errorf("bmuFor(float64) allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		fsink += g.EvalSparse(en.idx, en.val)
	}); n != 0 {
		t.Errorf("EvalSparse allocates %v per op", n)
	}
	enc.kernel = KernelFloat32
	if n := testing.AllocsPerRun(100, func() {
		sink += enc.bmuFor(ce, en)
	}); n != 0 {
		t.Errorf("bmuFor(float32) allocates %v per op", n)
	}
	if sink < 0 || fsink < 0 {
		t.Fatal("impossible")
	}
}
