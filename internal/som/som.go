// Package som implements the Self-Organizing Feature Map used by both
// levels of the paper's hierarchical encoding architecture.
//
// The implementation is the classic online (incremental) SOM of Kohonen:
// a rectangular grid of units, each holding a weight vector of the input
// dimension; for every presented input the best-matching unit (BMU) is
// found by Euclidean distance and the BMU together with its neighbourhood
// is pulled towards the input. The neighbourhood kernel is Gaussian — the
// paper depends on this for the Gaussian membership functions built on
// top of trained maps (section 6.2).
//
// Weight storage is a single contiguous []float64 (unit-major) with a
// cached squared norm per unit, so BMU search is one cache-friendly sweep
// using the |x−w|² = |x|² − 2x·w + |w|² identity (|x|² is constant across
// units and drops out of the argmin). BMUBatch shards independent BMU
// queries across workers.
//
// Training is deterministic for a fixed Config.Seed, which the rest of
// the system relies on for reproducible experiments.
package som

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Config parameterises map construction and training.
type Config struct {
	// Width and Height give the grid dimensions (units = Width*Height).
	Width, Height int
	// Dim is the input/weight vector dimension.
	Dim int
	// Epochs is the number of passes over the training inputs.
	Epochs int
	// InitialLearningRate is the learning rate at t=0; it decays linearly
	// to FinalLearningRate over training.
	InitialLearningRate float64
	// FinalLearningRate is the learning rate at the final step.
	FinalLearningRate float64
	// InitialRadius is the Gaussian neighbourhood radius at t=0; it decays
	// exponentially to ~1 over training. Zero means max(Width,Height)/2.
	InitialRadius float64
	// Seed seeds weight initialisation and input shuffling.
	Seed int64
	// Shuffle controls whether inputs are presented in random order each
	// epoch. The paper presents words "in the same order" as the corpus,
	// so the hierarchical encoder disables shuffling.
	Shuffle bool
	// Observer, when non-nil, is called after every training epoch with
	// that epoch's statistics. It is diagnostics-only: observers must not
	// mutate the map, and training never reads anything back from them,
	// so results are bit-identical with and without an observer. The
	// per-epoch quantisation error is only computed when an observer is
	// attached (it costs one BMU sweep over the inputs per epoch).
	// Excluded from snapshots.
	Observer func(EpochStats) `json:"-"`
}

// EpochStats is the per-epoch training telemetry handed to
// Config.Observer.
type EpochStats struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// AWC is the epoch's average weight change (the paper's map-sizing
	// diagnostic).
	AWC float64
	// QuantError is the mean input-to-BMU distance at the end of the
	// epoch.
	QuantError float64
	// Radius and LearningRate are the neighbourhood radius and learning
	// rate in effect at the end of the epoch.
	Radius, LearningRate float64
	// Duration is the epoch's wall-clock training time (excluding the
	// observer's own quantisation-error sweep).
	Duration time.Duration
}

func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("som: grid %dx%d must be positive", c.Width, c.Height)
	}
	if c.Dim <= 0 {
		return fmt.Errorf("som: dimension %d must be positive", c.Dim)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("som: epochs %d must be positive", c.Epochs)
	}
	if c.InitialLearningRate <= 0 {
		return errors.New("som: initial learning rate must be positive")
	}
	return nil
}

// Map is a trained (or in-training) self-organizing map.
type Map struct {
	cfg Config
	// flat holds every weight vector back to back (unit-major): unit u's
	// vector is flat[u*Dim : (u+1)*Dim].
	flat []float64
	// norm2 caches |w_u|² per unit, maintained incrementally by the
	// training rules, so BMU search needs only one dot product per unit.
	norm2 []float64
	awc   []float64 // average weight change per epoch, recorded by Train
}

// New creates a map with random initial weights in [0,1) scaled by
// initScale (use the input data range). Returns an error on a bad config.
func New(cfg Config, initScale float64) (*Map, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.InitialRadius <= 0 {
		cfg.InitialRadius = math.Max(float64(cfg.Width), float64(cfg.Height)) / 2
	}
	if cfg.FinalLearningRate <= 0 {
		cfg.FinalLearningRate = 0.01
	}
	if initScale <= 0 {
		initScale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	units := cfg.Width * cfg.Height
	flat := make([]float64, units*cfg.Dim)
	for i := range flat {
		flat[i] = rng.Float64() * initScale
	}
	m := &Map{cfg: cfg, flat: flat, norm2: make([]float64, units)}
	for u := 0; u < units; u++ {
		m.updateNorm(u)
	}
	return m, nil
}

// Config returns the configuration the map was built with (radius and
// final learning rate defaults resolved).
func (m *Map) Config() Config { return m.cfg }

// Units returns the number of units on the map (Width*Height).
func (m *Map) Units() int { return len(m.norm2) }

// Dim returns the weight vector dimension.
func (m *Map) Dim() int { return m.cfg.Dim }

// Weights returns the weight vector of unit u. The returned slice aliases
// the map's contiguous storage; callers must not modify it.
func (m *Map) Weights(u int) []float64 {
	d := m.cfg.Dim
	return m.flat[u*d : (u+1)*d : (u+1)*d]
}

// updateNorm recomputes the cached squared norm of unit u after its
// weight vector changed.
func (m *Map) updateNorm(u int) {
	w := m.Weights(u)
	var sum float64
	for _, v := range w {
		sum += v * v
	}
	m.norm2[u] = sum
}

// Coords returns the (column, row) grid position of unit u.
func (m *Map) Coords(u int) (x, y int) {
	return u % m.cfg.Width, u / m.cfg.Width
}

// UnitAt returns the unit index at grid position (x, y).
func (m *Map) UnitAt(x, y int) int { return y*m.cfg.Width + x }

// gridDist2 is the squared Euclidean distance between two units on the grid.
func (m *Map) gridDist2(a, b int) float64 {
	ax, ay := m.Coords(a)
	bx, by := m.Coords(b)
	dx, dy := float64(ax-bx), float64(ay-by)
	return dx*dx + dy*dy
}

// dist2 is the squared Euclidean distance between input x and unit u's
// weight vector.
func (m *Map) dist2(x []float64, u int) float64 {
	var sum float64
	w := m.Weights(u)
	for d := range w {
		diff := x[d] - w[d]
		sum += diff * diff
	}
	return sum
}

// dotProduct computes x·w with four accumulators, breaking the
// loop-carried add dependency so the sweep runs at multiplier throughput
// instead of add latency. The accumulation order is fixed, keeping BMU
// results deterministic.
//
//tdlint:hotpath
func dotProduct(x, w []float64) float64 {
	n := len(x)
	w = w[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * w[i]
		s1 += x[i+1] * w[i+1]
		s2 += x[i+2] * w[i+2]
		s3 += x[i+3] * w[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * w[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// score returns |w_u|² − 2·x·w_u, the BMU ranking score: it orders units
// exactly as squared Euclidean distance does (the |x|² term is constant
// across units) but needs one dot product instead of a subtract-square
// per dimension, against the cached norm.
//
//tdlint:hotpath
func (m *Map) score(x []float64, u int) float64 {
	return m.norm2[u] - 2*dotProduct(x, m.Weights(u))
}

// BMU returns the best-matching unit for input x: the unit whose weight
// vector has the smallest Euclidean distance to x. Ties break towards the
// lower unit index, keeping results deterministic.
//
//tdlint:hotpath
func (m *Map) BMU(x []float64) int {
	dim := len(x)
	best, bestS := 0, math.Inf(1)
	off := 0
	for u, n2 := range m.norm2 {
		// dotProduct inlined by hand (its loops defeat the inliner and a
		// per-unit call dominates at small dims); arithmetic is identical,
		// so BMU and score agree bit for bit.
		w := m.flat[off : off+dim : off+dim]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= dim; i += 4 {
			s0 += x[i] * w[i]
			s1 += x[i+1] * w[i+1]
			s2 += x[i+2] * w[i+2]
			s3 += x[i+3] * w[i+3]
		}
		for ; i < dim; i++ {
			s0 += x[i] * w[i]
		}
		s := n2 - 2*((s0+s1)+(s2+s3))
		if s < bestS {
			best, bestS = u, s
		}
		off += dim
	}
	return best
}

// BMUBatch computes the BMU of every input, sharding the (independent)
// searches across workers goroutines. workers <= 0 means
// runtime.GOMAXPROCS(0). The result is positionally identical to calling
// BMU in a loop, for any worker count.
func (m *Map) BMUBatch(inputs [][]float64, workers int) []int {
	out := make([]int, len(inputs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers <= 1 {
		for i, x := range inputs {
			out[i] = m.BMU(x)
		}
		return out
	}
	var wg sync.WaitGroup
	chunk := (len(inputs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(inputs) {
			hi = len(inputs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = m.BMU(inputs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// NearestK returns the k units closest to input x in weight space,
// ordered from nearest to farthest (the paper's "k most affected BMUs").
// If k exceeds the unit count, all units are returned. Ranking uses the
// same score as BMU, so NearestK(x, 1)[0] == BMU(x) always holds.
func (m *Map) NearestK(x []float64, k int) []int {
	if k > m.Units() {
		k = m.Units()
	}
	if k <= 0 {
		return nil
	}
	// Selection over a small fixed k — maps here are at most 8x13 units.
	type cand struct {
		u int
		d float64
	}
	best := make([]cand, 0, k)
	for u := 0; u < m.Units(); u++ {
		d := m.score(x, u)
		if len(best) < k {
			best = append(best, cand{u, d})
			for i := len(best) - 1; i > 0 && best[i].d < best[i-1].d; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			continue
		}
		if d < best[k-1].d {
			best[k-1] = cand{u, d}
			for i := k - 1; i > 0 && best[i].d < best[i-1].d; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.u
	}
	return out
}

// Train runs online SOM training over the inputs for the configured
// number of epochs, recording the average weight change (AWC) per epoch.
// Every input must have dimension Config.Dim.
func (m *Map) Train(inputs [][]float64) error {
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
				for gx := x0; gx <= x1; gx++ {
					u := m.UnitAt(gx, gy)
					g2 := m.gridDist2(u, bmu)
					if g2 > 9*r2 {
						continue
					}
					h := math.Exp(-g2 / (2 * r2))
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

// AWC returns a copy of the average weight change recorded for each
// training epoch (one allocation per call — cache the result outside
// loops). The paper uses AWC curves to choose map sizes (7x13 and 8x8).
func (m *Map) AWC() []float64 { return append([]float64(nil), m.awc...) }

// QuantizationError returns the mean distance between each input and its
// BMU's weight vector — a standard goodness-of-fit diagnostic.
func (m *Map) QuantizationError(inputs [][]float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range inputs {
		sum += math.Sqrt(m.dist2(x, m.BMU(x)))
	}
	return sum / float64(len(inputs))
}

// TopographicError returns the fraction of inputs whose first and second
// BMUs are not grid neighbours — a standard topology-preservation
// diagnostic.
func (m *Map) TopographicError(inputs [][]float64) float64 {
	if len(inputs) == 0 {
		return 0
	}
	bad := 0
	for _, x := range inputs {
		nk := m.NearestK(x, 2)
		if len(nk) < 2 {
			continue
		}
		if m.gridDist2(nk[0], nk[1]) > 2 { // not in the 8-neighbourhood
			bad++
		}
	}
	return float64(bad) / float64(len(inputs))
}

// HitHistogram counts, for each unit, how many of the inputs select it as
// their BMU.
func (m *Map) HitHistogram(inputs [][]float64) []int {
	hits := make([]int, m.Units())
	for _, bmu := range m.BMUBatch(inputs, 0) {
		hits[bmu]++
	}
	return hits
}
