package som

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// trainReference is Train as it was before the one-pass step and the
// schedule goroutine, kept verbatim as the reference TestTrainMatchesReference
// holds Train to: a BMU sweep, then an update of the units in the box
// around it, with the neighbourhood weight memoised per grid distance.
func (m *Map) trainReference(inputs [][]float64) error {
	if len(inputs) == 0 {
		return errors.New("som: no training inputs")
	}
	for i, x := range inputs {
		if len(x) != m.cfg.Dim {
			return fmt.Errorf("som: input %d has dim %d, want %d", i, len(x), m.cfg.Dim)
		}
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 1))
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	totalSteps := m.cfg.Epochs * len(inputs)
	// Exponential radius decay time constant so radius reaches ~1 at end.
	lambda := float64(totalSteps) / math.Max(math.Log(m.cfg.InitialRadius), 1e-9)
	step := 0
	m.awc = m.awc[:0]
	// weightAt[g2] is the neighbourhood weight at squared grid distance
	// g2 for the step recorded in filledAt[g2] (stored as step+1, so the
	// zero value means never filled). Filled lazily: early steps reach
	// more distances than there are units.
	maxG2 := (m.cfg.Width-1)*(m.cfg.Width-1) + (m.cfg.Height-1)*(m.cfg.Height-1)
	weightAt := make([]float64, maxG2+1)
	filledAt := make([]int, maxG2+1)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		var epochStart time.Time
		if m.cfg.Observer != nil {
			epochStart = time.Now()
		}
		if m.cfg.Shuffle {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var change float64
		var updates int
		var lastLR, lastRadius float64
		for _, idx := range order {
			x := inputs[idx]
			t := float64(step) / float64(totalSteps)
			lr := m.cfg.InitialLearningRate + t*(m.cfg.FinalLearningRate-m.cfg.InitialLearningRate)
			radius := m.cfg.InitialRadius * math.Exp(-float64(step)/lambda)
			if radius < 0.5 {
				radius = 0.5
			}
			lastLR, lastRadius = lr, radius
			bmu := m.BMU(x)
			r2 := radius * radius
			// Only units within 3 radii of the BMU receive a non-negligible
			// Gaussian pull; restrict the sweep to that bounding box instead
			// of scanning the whole grid. Units inside the box but outside
			// the circular cutoff are skipped exactly as before, so the
			// update sequence is bit-identical to a full-grid sweep.
			bx, by := m.Coords(bmu)
			reach := int(3 * radius)
			x0, x1 := bx-reach, bx+reach
			y0, y1 := by-reach, by+reach
			if x0 < 0 {
				x0 = 0
			}
			if y0 < 0 {
				y0 = 0
			}
			if x1 >= m.cfg.Width {
				x1 = m.cfg.Width - 1
			}
			if y1 >= m.cfg.Height {
				y1 = m.cfg.Height - 1
			}
			for gy := y0; gy <= y1; gy++ {
				dy := gy - by
				for gx := x0; gx <= x1; gx++ {
					dx := gx - bx
					// Integer squares convert to float64 exactly, so this
					// is the grid distance the float formula gives.
					d2 := dx*dx + dy*dy
					g2 := float64(d2)
					if g2 > 9*r2 {
						continue
					}
					if filledAt[d2] != step+1 {
						weightAt[d2] = math.Exp(-g2 / (2 * r2))
						filledAt[d2] = step + 1
					}
					h := weightAt[d2]
					u := m.UnitAt(gx, gy)
					w := m.Weights(u)
					// Accumulate the new squared norm while updating, in the
					// same order updateNorm would, saving a second pass.
					var nrm float64
					for d := range w {
						delta := lr * h * (x[d] - w[d])
						w[d] += delta
						change += math.Abs(delta)
						updates++
						nrm += w[d] * w[d]
					}
					m.norm2[u] = nrm
				}
			}
			step++
		}
		if updates > 0 {
			m.awc = append(m.awc, change/float64(updates))
		} else {
			m.awc = append(m.awc, 0)
		}
		if m.cfg.Observer != nil {
			// Stop the clock before the quantisation-error sweep: Duration
			// is the epoch's training time only.
			dur := time.Since(epochStart)
			m.cfg.Observer(EpochStats{
				Epoch:        epoch,
				AWC:          m.awc[len(m.awc)-1],
				QuantError:   m.QuantizationError(inputs),
				Radius:       lastRadius,
				LearningRate: lastLR,
				Duration:     dur,
			})
		}
	}
	return nil
}

// TestTrainMatchesReference holds Train to trainReference over a seeded
// sweep of shapes hsom never trains: grids from 1×1 to 9×9, dimensions
// with every tail length of the four-lane dot product, shuffling on and
// off, radii from below the 0.5 clamp (a cutoff that never covers the
// grid) to 6, a single input (every step is an epoch's last) up to 40,
// and observers on some cases. Both trainers start from the same map;
// their snapshots must be the same JSON bytes, their cached norms the
// same bits, and their observers must see the same epochs. Train must
// also leave no goroutine behind, even when a panicking observer cuts it
// short.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2207))
	dims := []int{1, 2, 3, 4, 5, 6, 91}
	before := runtime.NumGoroutine()
	for c := 0; c < 162; c++ {
		cfg := Config{
			Width:               1 + c%9,
			Height:              1 + (c/9)%9,
			Dim:                 dims[c%len(dims)],
			Epochs:              1 + c%3,
			InitialLearningRate: 0.05 + rng.Float64()*0.6,
			FinalLearningRate:   rng.Float64() * 0.05,
			InitialRadius:       0.3 + rng.Float64()*5.7,
			Seed:                rng.Int63(),
			Shuffle:             c%2 == 1,
		}
		if c%4 == 0 {
			cfg.InitialRadius = 0.3
		}
		n := 1 + rng.Intn(40)
		if c%5 == 0 {
			n = 1
		}
		inputs := make([][]float64, n)
		for i := range inputs {
			if i > 0 && rng.Intn(4) == 0 {
				inputs[i] = inputs[rng.Intn(i)] // repeated inputs share a slice, as hsom's words do
				continue
			}
			inputs[i] = make([]float64, cfg.Dim)
			for d := range inputs[i] {
				inputs[i][d] = rng.Float64() * 3
			}
		}
		name := fmt.Sprintf("case%d-%dx%d-dim%d-r%.2f-n%d-e%d-shuffle=%v",
			c, cfg.Width, cfg.Height, cfg.Dim, cfg.InitialRadius, n, cfg.Epochs, cfg.Shuffle)
		observe := c%3 == 0

		var gotStats, wantStats []EpochStats
		got, err := New(cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := New(cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if observe {
			got.cfg.Observer = func(s EpochStats) { gotStats = append(gotStats, s) }
			want.cfg.Observer = func(s EpochStats) { wantStats = append(wantStats, s) }
		}
		if err := got.Train(inputs); err != nil {
			t.Fatalf("%s: Train: %v", name, err)
		}
		if err := want.trainReference(inputs); err != nil {
			t.Fatalf("%s: trainReference: %v", name, err)
		}

		gotJSON, err := json.Marshal(got.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: snapshot differs from the reference trainer's", name)
			continue
		}
		for u := range got.norm2 {
			if math.Float64bits(got.norm2[u]) != math.Float64bits(want.norm2[u]) {
				t.Errorf("%s: unit %d cached norm %v, reference %v", name, u, got.norm2[u], want.norm2[u])
				break
			}
		}
		if len(gotStats) != len(wantStats) {
			t.Errorf("%s: %d observed epochs, reference %d", name, len(gotStats), len(wantStats))
			continue
		}
		for e := range gotStats {
			if !sameStats(gotStats[e], wantStats[e]) {
				t.Errorf("%s: epoch %d stats %+v, reference %+v", name, e, gotStats[e], wantStats[e])
			}
		}
	}
	// A Train cut short stops its schedule goroutine too. Here the
	// observer panics after the first of three epochs, when the goroutine
	// has planned every chunk it may run ahead and waits for a free one.
	func() {
		defer func() { _ = recover() }()
		m, err := New(Config{Width: 2, Height: 2, Dim: 1, Epochs: 3, InitialLearningRate: 0.5, Seed: 1}, 3)
		if err != nil {
			t.Fatal(err)
		}
		m.cfg.Observer = func(EpochStats) { panic("training abandoned") }
		inputs := make([][]float64, 2*planChunks*planChunkSteps)
		for i := range inputs {
			inputs[i] = []float64{float64(i % 7)}
		}
		_ = m.Train(inputs)
		t.Error("Train returned although its observer panicked")
	}()
	// stop returns once the schedule goroutine has closed done, which it
	// does on its way out, so the runtime may count it a moment longer.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before training, %d after", before, after)
	}
}

// sameStats reports whether two epochs' statistics carry the same bits,
// Duration aside.
func sameStats(a, b EpochStats) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Epoch == b.Epoch && same(a.AWC, b.AWC) && same(a.QuantError, b.QuantError) &&
		same(a.Radius, b.Radius) && same(a.LearningRate, b.LearningRate)
}
