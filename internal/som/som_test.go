package som

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Map {
	t.Helper()
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func baseCfg() Config {
	return Config{
		Width: 4, Height: 4, Dim: 2,
		Epochs:              10,
		InitialLearningRate: 0.5,
		FinalLearningRate:   0.02,
		Seed:                1,
		Shuffle:             true,
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Width: 0, Height: 4, Dim: 2, Epochs: 1, InitialLearningRate: 0.5},
		{Width: 4, Height: -1, Dim: 2, Epochs: 1, InitialLearningRate: 0.5},
		{Width: 4, Height: 4, Dim: 0, Epochs: 1, InitialLearningRate: 0.5},
		{Width: 4, Height: 4, Dim: 2, Epochs: 0, InitialLearningRate: 0.5},
		{Width: 4, Height: 4, Dim: 2, Epochs: 1, InitialLearningRate: 0},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("case %d: expected error for config %+v", i, cfg)
		}
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	m := mustNew(t, baseCfg())
	for u := 0; u < m.Units(); u++ {
		x, y := m.Coords(u)
		if got := m.UnitAt(x, y); got != u {
			t.Fatalf("UnitAt(Coords(%d)) = %d", u, got)
		}
		if x < 0 || x >= 4 || y < 0 || y >= 4 {
			t.Fatalf("unit %d coords (%d,%d) out of grid", u, x, y)
		}
	}
}

func TestTrainRejectsBadInputs(t *testing.T) {
	m := mustNew(t, baseCfg())
	if err := m.Train(nil); err == nil {
		t.Error("expected error for empty inputs")
	}
	if err := m.Train([][]float64{{1, 2, 3}}); err == nil {
		t.Error("expected error for wrong-dimension input")
	}
}

// Training on two well-separated clusters must map members of the same
// cluster to nearby units and members of different clusters to distant
// units.
func TestTrainSeparatesClusters(t *testing.T) {
	cfg := baseCfg()
	cfg.Width, cfg.Height = 6, 6
	cfg.Epochs = 30
	m := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(7))
	var inputs [][]float64
	for i := 0; i < 60; i++ {
		inputs = append(inputs, []float64{rng.Float64() * 0.1, rng.Float64() * 0.1})
		inputs = append(inputs, []float64{0.9 + rng.Float64()*0.1, 0.9 + rng.Float64()*0.1})
	}
	if err := m.Train(inputs); err != nil {
		t.Fatalf("Train: %v", err)
	}
	aBMU := m.BMU([]float64{0.05, 0.05})
	bBMU := m.BMU([]float64{0.95, 0.95})
	if aBMU == bBMU {
		t.Fatalf("separated clusters share BMU %d", aBMU)
	}
	ax, ay := m.Coords(aBMU)
	bx, by := m.Coords(bBMU)
	if d := (ax-bx)*(ax-bx) + (ay-by)*(ay-by); d < 4 {
		t.Errorf("cluster BMUs too close on grid: dist2=%v", d)
	}
	// Quantization error must be small relative to the cluster separation.
	if qe := m.QuantizationError(inputs); qe > 0.3 {
		t.Errorf("quantization error %v too large", qe)
	}
}

func TestTrainDeterministicForSeed(t *testing.T) {
	inputs := [][]float64{{0, 0}, {1, 1}, {0.5, 0.2}, {0.1, 0.9}}
	run := func() [][]float64 {
		m := mustNew(t, baseCfg())
		if err := m.Train(inputs); err != nil {
			t.Fatalf("Train: %v", err)
		}
		out := make([][]float64, m.Units())
		for u := range out {
			out[u] = append([]float64(nil), m.Weights(u)...)
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("training not deterministic for fixed seed")
	}
}

func TestTrainSeedChangesResult(t *testing.T) {
	inputs := [][]float64{{0, 0}, {1, 1}, {0.5, 0.2}, {0.1, 0.9}}
	cfgA, cfgB := baseCfg(), baseCfg()
	cfgB.Seed = 99
	mA, mB := mustNew(t, cfgA), mustNew(t, cfgB)
	if err := mA.Train(inputs); err != nil {
		t.Fatal(err)
	}
	if err := mB.Train(inputs); err != nil {
		t.Fatal(err)
	}
	same := true
	for u := 0; u < mA.Units() && same; u++ {
		same = reflect.DeepEqual(mA.Weights(u), mB.Weights(u))
	}
	if same {
		t.Error("different seeds produced identical maps")
	}
}

func TestAWCDecreases(t *testing.T) {
	cfg := baseCfg()
	cfg.Epochs = 20
	m := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(3))
	var inputs [][]float64
	for i := 0; i < 50; i++ {
		inputs = append(inputs, []float64{rng.Float64(), rng.Float64()})
	}
	if err := m.Train(inputs); err != nil {
		t.Fatal(err)
	}
	awc := m.AWC()
	if len(awc) != cfg.Epochs {
		t.Fatalf("AWC length %d, want %d", len(awc), cfg.Epochs)
	}
	if awc[len(awc)-1] >= awc[0] {
		t.Errorf("AWC did not decrease: first=%v last=%v", awc[0], awc[len(awc)-1])
	}
}

func TestNearestKOrderingAndBounds(t *testing.T) {
	m := mustNew(t, baseCfg())
	x := []float64{0.3, 0.7}
	for k := 0; k <= m.Units()+3; k++ {
		nk := m.NearestK(x, k)
		wantLen := k
		if wantLen > m.Units() {
			wantLen = m.Units()
		}
		if wantLen < 0 {
			wantLen = 0
		}
		if len(nk) != wantLen {
			t.Fatalf("NearestK(%d) len=%d want %d", k, len(nk), wantLen)
		}
		for i := 1; i < len(nk); i++ {
			if m.dist2(x, nk[i-1]) > m.dist2(x, nk[i]) {
				t.Fatalf("NearestK(%d) not sorted at %d", k, i)
			}
		}
	}
	if nk := m.NearestK(x, 1); nk[0] != m.BMU(x) {
		t.Errorf("NearestK(1)=%d != BMU=%d", nk[0], m.BMU(x))
	}
}

// Property: for any input, NearestK(3) contains distinct units and the
// first is always the BMU.
func TestNearestKProperty(t *testing.T) {
	m := mustNew(t, baseCfg())
	f := func(a, b float64) bool {
		x := []float64{math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)}
		nk := m.NearestK(x, 3)
		if len(nk) != 3 || nk[0] != m.BMU(x) {
			return false
		}
		return nk[0] != nk[1] && nk[1] != nk[2] && nk[0] != nk[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantizationErrorZeroOnExactWeights(t *testing.T) {
	m := mustNew(t, baseCfg())
	inputs := [][]float64{
		append([]float64(nil), m.Weights(0)...),
		append([]float64(nil), m.Weights(5)...),
	}
	if qe := m.QuantizationError(inputs); qe != 0 {
		t.Errorf("QE on exact weight vectors = %v, want 0", qe)
	}
	if qe := m.QuantizationError(nil); qe != 0 {
		t.Errorf("QE on empty inputs = %v, want 0", qe)
	}
}

func TestPaperMapSizes(t *testing.T) {
	// The paper's two map geometries must construct cleanly.
	if m := mustNew(t, Config{Width: 7, Height: 13, Dim: 2, Epochs: 1, InitialLearningRate: 0.5, Seed: 1}); m.Units() != 91 {
		t.Errorf("7x13 map has %d units, want 91", m.Units())
	}
	if m := mustNew(t, Config{Width: 8, Height: 8, Dim: 91, Epochs: 1, InitialLearningRate: 0.5, Seed: 1}); m.Units() != 64 {
		t.Errorf("8x8 map has %d units, want 64", m.Units())
	}
}

// Property: training never produces NaN or infinite weights.
func TestTrainWeightsFinite(t *testing.T) {
	cfg := baseCfg()
	cfg.Epochs = 5
	m := mustNew(t, cfg)
	rng := rand.New(rand.NewSource(13))
	var inputs [][]float64
	for i := 0; i < 40; i++ {
		inputs = append(inputs, []float64{rng.Float64() * 100, rng.Float64() * 100})
	}
	if err := m.Train(inputs); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < m.Units(); u++ {
		for _, w := range m.Weights(u) {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("unit %d has non-finite weight %v", u, w)
			}
		}
	}
}
