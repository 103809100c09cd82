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
// units and drops out of the argmin).
//
// Training is deterministic for a fixed Config.Seed, which the rest of
// the system relies on for reproducible experiments.
package som

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	best, _ := m.scoreRange(x, 0, len(m.norm2), 0, math.Inf(1))
	return best
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
//
// Each step is one pass over the map in unit order (see step): units
// near the BMU are pulled towards the input, and every unit is scored
// against the next input on its new weights, so the pass ends with the
// next step's BMU. BMU itself runs once per epoch, on its first input.
// The learning rate, radius and Gaussian neighbourhood weights depend on
// the step index alone, and a goroutine computes them ahead of the loop
// (see schedule). That goroutine runs for the length of the call, so
// one Train call can keep two cores busy. Train stops it before
// returning, panics included; the goroutine has then closed its done
// channel but may not have exited yet. Every value is the same
// expression on the same operands in the same order as an update
// followed by a BMU sweep, so the trained weights are the bits that
// sequence gives.
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
	m.awc = m.awc[:0]
	plans := m.startSchedule(totalSteps, lambda)
	defer plans.stop()
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		var epochStart time.Time
		if m.cfg.Observer != nil {
			epochStart = time.Now()
		}
		if m.cfg.Shuffle {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var change float64
		var updated int
		var lastLR, lastRadius float64
		bmu := m.BMU(inputs[order[0]])
		for k, idx := range order {
			p := plans.next()
			lastLR, lastRadius = p.lr, p.radius
			// The epoch's last step scores its own input and drops the
			// result: the next epoch may reshuffle, so it starts from its
			// own BMU sweep.
			next := inputs[order[min(k+1, len(order)-1)]]
			var n int
			bmu, n, change = m.step(inputs[idx], next, bmu, p, plans.rank, change)
			updated += n
		}
		if updates := updated * m.cfg.Dim; updates > 0 {
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

// step pulls the units around bmu towards x as plan p says, adding the
// magnitude of each weight change to the running AWC sum change in unit
// and dimension order. It returns the BMU of next on the updated map,
// the number of units updated and the new sum. rank[d2] is the index
// into p.h of squared grid distance d2.
//
// Units are visited in index order. A unit is updated when it lies in
// the box of half-width p.reach around the BMU and within the 3-radius
// cutoff; in one row those units are the ones with |dx| <= k, since the
// grid distance grows with |dx|. Each is updated and scored against
// next in one loop (pullScore); every other unit is only scored
// (scoreRange). A strict running minimum keeps the first lowest score,
// as BMU does.
func (m *Map) step(x, next []float64, bmu int, p *stepPlan, rank []int32, change float64) (int, int, float64) {
	bx, by := m.Coords(bmu)
	best, bestS := 0, math.Inf(1)
	updated := 0
	from := 0 // the first unit not yet visited
	for gy := max(by-p.reach, 0); gy <= min(by+p.reach, m.cfg.Height-1); gy++ {
		dy := gy - by
		// No column lies more than Width-1 from the BMU's.
		k := min(p.reach, m.cfg.Width-1)
		for k >= 0 && k*k+dy*dy > p.cut {
			k--
		}
		if k < 0 {
			continue
		}
		center := m.UnitAt(bx, gy)
		lo, hi := m.UnitAt(max(bx-k, 0), gy), m.UnitAt(min(bx+k, m.cfg.Width-1), gy)
		best, bestS = m.scoreRange(next, from, lo, best, bestS)
		for u := lo; u <= hi; u++ {
			dx := u - center
			a := p.lr * p.h[rank[dx*dx+dy*dy]]
			var nrm, dot float64
			nrm, dot, change = pullScore(m.Weights(u), x, next, a, change)
			m.norm2[u] = nrm
			if s := nrm - 2*dot; s < bestS {
				best, bestS = u, s
			}
		}
		updated += hi - lo + 1
		from = hi + 1
	}
	best, _ = m.scoreRange(next, from, len(m.norm2), best, bestS)
	return best, updated, change
}

// scoreRange scores units from..to-1 against x and returns the running
// minimum (best, bestS) updated by them: a unit replaces it only with a
// strictly lower score, so ties keep the lower index.
//
//tdlint:hotpath
func (m *Map) scoreRange(x []float64, from, to, best int, bestS float64) (int, float64) {
	dim := len(x)
	off := from * dim
	for u := from; u < to; u++ {
		// dotProduct inlined by hand (its loops defeat the inliner and a
		// per-unit call dominates at small dims); arithmetic is identical,
		// so scoreRange and score agree bit for bit.
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
		if s := m.norm2[u] - 2*((s0+s1)+(s2+s3)); s < bestS {
			best, bestS = u, s
		}
		off += dim
	}
	return best, bestS
}

// pullScore moves w towards x at rate a, the step's learning rate times
// the unit's neighbourhood weight, and scores the new weights against
// next. It adds the magnitude of every weight change to the running AWC
// sum change, in dimension order, and returns w's new squared norm
// (accumulated in the order updateNorm uses), next·w and the new sum.
// The dot product is summed as scoreRange sums it: lanes d%4 below
// len(w)&^3, lane 0 for the tail, reduced as (s0+s1)+(s2+s3).
func pullScore(w, x, next []float64, a, change float64) (float64, float64, float64) {
	n := len(w)
	x, next = x[:n], next[:n]
	var nrm, s0, s1, s2, s3 float64
	d := 0
	for ; d+4 <= n; d += 4 {
		_, _, _ = w[d+3], x[d+3], next[d+3] // one bounds check for the block
		v := w[d]
		delta := a * (x[d] - v)
		v += delta
		w[d] = v
		change += math.Abs(delta)
		s0 += next[d] * v
		nrm += v * v
		v = w[d+1]
		delta = a * (x[d+1] - v)
		v += delta
		w[d+1] = v
		change += math.Abs(delta)
		s1 += next[d+1] * v
		nrm += v * v
		v = w[d+2]
		delta = a * (x[d+2] - v)
		v += delta
		w[d+2] = v
		change += math.Abs(delta)
		s2 += next[d+2] * v
		nrm += v * v
		v = w[d+3]
		delta = a * (x[d+3] - v)
		v += delta
		w[d+3] = v
		change += math.Abs(delta)
		s3 += next[d+3] * v
		nrm += v * v
	}
	for ; d < n; d++ {
		v := w[d]
		delta := a * (x[d] - v)
		v += delta
		w[d] = v
		change += math.Abs(delta)
		s0 += next[d] * v
		nrm += v * v
	}
	return nrm, (s0 + s1) + (s2 + s3), change
}

// planChunkSteps steps make one schedule chunk, and the schedule keeps
// at most planChunks chunks ahead of training. A chunk holds one
// neighbourhood weight per step per squared distance the grid has:
// 128 × 64 floats, 64 KB, for the 7×13 char map.
const (
	planChunkSteps = 128
	planChunks     = 4
)

// stepPlan is the part of a training step that depends on the step
// index alone.
type stepPlan struct {
	lr, radius float64
	// reach is the half-width of the box around the BMU that holds every
	// unit within 3 radii.
	reach int
	// cut is the largest squared grid distance within the cutoff.
	cut int
	// h[i] is the Gaussian neighbourhood weight at the i-th smallest
	// squared distance the grid has, for every such distance up to cut.
	h []float64
}

// planChunk carries the plans of consecutive steps; chunks are recycled
// between the schedule goroutine and Train.
type planChunk struct {
	steps []stepPlan
	h     []float64 // backing array of every steps[i].h
}

// schedule plans every step of a Train call on its own goroutine, ahead
// of the training loop, so that the radius decay and the step's
// neighbourhood exps (one per squared grid distance within the cutoff)
// run on another core. Chunks reach Train in step order over ready and
// go back over free once read.
type schedule struct {
	// rank[d2] is the index of squared grid distance d2 among the
	// distances the grid has, ascending: where its weight sits in h.
	rank        []int32
	free, ready chan *planChunk
	quit, done  chan struct{}
	cur         *planChunk
	i           int
}

// startSchedule starts the goroutine that plans steps 0..total-1 of a
// Train call whose radius decays with time constant lambda.
func (m *Map) startSchedule(total int, lambda float64) *schedule {
	cfg := m.cfg
	maxG2 := (cfg.Width-1)*(cfg.Width-1) + (cfg.Height-1)*(cfg.Height-1)
	occurs := make([]bool, maxG2+1)
	for dy := 0; dy < cfg.Height; dy++ {
		for dx := 0; dx < cfg.Width; dx++ {
			occurs[dx*dx+dy*dy] = true
		}
	}
	rank := make([]int32, maxG2+1)
	var dists []int // the squared grid distances units lie apart, ascending
	for d2, ok := range occurs {
		if ok {
			rank[d2] = int32(len(dists))
			dists = append(dists, d2)
		}
	}
	chunkSteps := min(planChunkSteps, total)
	// free and ready can each hold every chunk, so no send on them
	// blocks.
	s := &schedule{
		rank:  rank,
		free:  make(chan *planChunk, planChunks),
		ready: make(chan *planChunk, planChunks),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		made := 0
		for first := 0; first < total; first += chunkSteps {
			var c *planChunk
			if made < planChunks {
				c = &planChunk{steps: make([]stepPlan, chunkSteps), h: make([]float64, chunkSteps*len(dists))}
				made++
			} else {
				select {
				case c = <-s.free:
				case <-s.quit:
					return
				}
			}
			c.steps = c.steps[:min(chunkSteps, total-first)]
			for k := range c.steps {
				step := first + k
				t := float64(step) / float64(total)
				lr := cfg.InitialLearningRate + t*(cfg.FinalLearningRate-cfg.InitialLearningRate)
				radius := cfg.InitialRadius * math.Exp(-float64(step)/lambda)
				if radius < 0.5 {
					radius = 0.5
				}
				r2 := radius * radius
				h := c.h[k*len(dists) : (k+1)*len(dists)]
				n := 0
				for _, d2 := range dists {
					// Integer squares convert to float64 exactly, so this
					// is the grid distance the float formula gives.
					g2 := float64(d2)
					if g2 > 9*r2 {
						break
					}
					h[n] = math.Exp(-g2 / (2 * r2))
					n++
				}
				// n >= 1: distance 0 is always within the cutoff.
				c.steps[k] = stepPlan{lr: lr, radius: radius, reach: int(3 * radius), cut: dists[n-1], h: h[:n]}
			}
			s.ready <- c
		}
	}()
	return s
}

// next returns the plan of the next step. The plan stays valid until the
// following call.
func (s *schedule) next() *stepPlan {
	if s.cur == nil || s.i == len(s.cur.steps) {
		if s.cur != nil {
			s.free <- s.cur
		}
		s.cur, s.i = <-s.ready, 0
	}
	p := &s.cur.steps[s.i]
	s.i++
	return p
}

// stop ends the schedule goroutine, if it is still running, and returns
// once the goroutine has closed done, its last act before it exits.
func (s *schedule) stop() {
	close(s.quit)
	<-s.done
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
