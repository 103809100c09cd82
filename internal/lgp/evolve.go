package lgp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Config holds the GP parameters (paper Table 2 values are the
// defaults from DefaultConfig).
type Config struct {
	// PopulationSize is the number of individuals (paper: 125).
	PopulationSize int
	// Tournaments is the number of steady-state tournaments (the paper's
	// "Generations": 48000).
	Tournaments int
	// TournamentSize is the number of contestants per tournament
	// (paper: 4; the best two overwrite the worst two).
	TournamentSize int
	// NumRegisters is the register-file size (paper: 8). R0 is the
	// output register.
	NumRegisters int
	// NumInputs is the input-port count (2 for the paper's word codes).
	NumInputs int
	// MaxPageSize is the largest dynamic page size, a power of two.
	MaxPageSize int
	// MaxPages bounds program length: MaxPages*MaxPageSize instructions
	// (paper node limit: 256).
	MaxPages int
	// PCrossover, PMutate, PSwap are the variation probabilities
	// (paper: 0.9, 0.5, 0.9), applied additively.
	PCrossover, PMutate, PSwap float64
	// ConstantRatio, InternalRatio, ExternalRatio weight instruction-type
	// generation (paper: 0, 4, 1).
	ConstantRatio, InternalRatio, ExternalRatio float64
	// PlateauWindow is the tournament window for plateau detection in the
	// dynamic page-size schedule (paper: 10).
	PlateauWindow int
	// Recurrent selects RLGP (true, the paper's system) or the reset-
	// per-pattern ablation.
	Recurrent bool
	// Fitness selects the objective: FitnessSSE (Equation 5, the paper's
	// choice) or FitnessF1 (the IR-measure-based fitness the paper's
	// conclusion proposes as future work).
	Fitness FitnessKind
	// DSS enables Dynamic Subset Selection when non-nil.
	DSS *DSSConfig
	// Trace, when non-nil, is called after every tournament with that
	// tournament's statistics — the evolution-trace hook. It is
	// diagnostics-only: the trainer never reads anything back, no RNG is
	// touched, and the evolved programs are bit-identical with and
	// without it. Calls arrive from the trainer's own goroutine.
	// Excluded from persisted models.
	Trace func(TournamentStats) `json:"-"`
	// Seed drives all evolution randomness.
	Seed int64
}

// TournamentStats is the per-tournament telemetry handed to
// Config.Trace.
type TournamentStats struct {
	// Tournament is the 0-based tournament index.
	Tournament int `json:"tournament"`
	// Best and Mean are the best and mean contestant fitness on the
	// active subset (lower is better).
	Best float64 `json:"best"`
	Mean float64 `json:"mean"`
	// MeanLen is the mean contestant program length in instructions.
	MeanLen float64 `json:"mean_len"`
	// PageSize is the dynamic page size in effect after the tournament.
	PageSize int `json:"page_size"`
	// SubsetSize is the active (DSS or full) training-subset size.
	SubsetSize int `json:"subset_size"`
	// Duration is the tournament's wall-clock time.
	Duration time.Duration `json:"duration_ns"`
}

// FitnessKind selects the evolutionary objective.
type FitnessKind string

// Supported objectives.
const (
	// FitnessSSE is the paper's sum-squared-error objective
	// (Equation 5). The empty string also selects it.
	FitnessSSE FitnessKind = "sse"
	// FitnessF1 minimises 1 - F1 of the sign classification over the
	// evaluated examples — the paper's proposed future-work fitness
	// ("fitness functions that can incorporate information retrieval
	// measures (such as F1 measure)"). A small SSE term breaks ties so
	// selection keeps a gradient inside equal-F1 plateaus.
	FitnessF1 FitnessKind = "f1"
)

// DSSConfig parameterises Dynamic Subset Selection (section 7.3;
// Gathercole & Ross style: selection pressure from example difficulty
// and age).
type DSSConfig struct {
	// SubsetSize is the number of training examples per subset.
	SubsetSize int
	// Interval is the number of tournaments between subset reselections.
	Interval int
	// DifficultyExp and AgeExp shape the selection weights
	// difficulty^DifficultyExp + age^AgeExp. Zero values default to 1.
	DifficultyExp, AgeExp float64
	// Stratify selects the subset per class (in-class and out-class
	// drawn separately, in proportion to their training shares but with
	// at least one example of each) — the category-aware DSS variant the
	// paper's conclusion proposes as future work ("subset is selected
	// based on the nature of a category instead of age and difficulty
	// values" alone).
	Stratify bool
}

// DefaultConfig returns the paper's Table 2 parameters.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 125,
		Tournaments:    48000,
		TournamentSize: 4,
		NumRegisters:   8,
		NumInputs:      2,
		MaxPageSize:    8,
		MaxPages:       32, // 32 pages × 8 instructions = node limit 256
		PCrossover:     0.9,
		PMutate:        0.5,
		PSwap:          0.9,
		ConstantRatio:  0,
		InternalRatio:  4,
		ExternalRatio:  1,
		PlateauWindow:  10,
		Recurrent:      true,
		DSS: &DSSConfig{
			SubsetSize: 50,
			Interval:   100,
		},
	}
}

// MaxRegisters bounds Config.NumRegisters: an instruction's
// destination field is three bits wide, so no program writes a ninth
// register.
const MaxRegisters = 8

func (c *Config) validate() error {
	if c.PopulationSize < 4 {
		return fmt.Errorf("lgp: population %d < 4", c.PopulationSize)
	}
	if c.TournamentSize < 2 || c.TournamentSize > c.PopulationSize {
		return fmt.Errorf("lgp: tournament size %d out of range", c.TournamentSize)
	}
	if c.NumRegisters < 1 || c.NumRegisters > MaxRegisters {
		return fmt.Errorf("lgp: registers %d out of [1,%d]", c.NumRegisters, MaxRegisters)
	}
	if c.NumInputs < 1 {
		return fmt.Errorf("lgp: inputs %d < 1", c.NumInputs)
	}
	if c.MaxPageSize < 1 || c.MaxPageSize&(c.MaxPageSize-1) != 0 {
		return fmt.Errorf("lgp: max page size %d not a power of two", c.MaxPageSize)
	}
	if c.MaxPages < 1 {
		return fmt.Errorf("lgp: max pages %d < 1", c.MaxPages)
	}
	if c.Tournaments < 1 {
		return fmt.Errorf("lgp: tournaments %d < 1", c.Tournaments)
	}
	if c.InternalRatio+c.ExternalRatio+c.ConstantRatio <= 0 {
		return fmt.Errorf("lgp: instruction type ratios sum to zero")
	}
	switch c.Fitness {
	case "", FitnessSSE, FitnessF1:
	default:
		return fmt.Errorf("lgp: unknown fitness kind %q", c.Fitness)
	}
	if c.DSS != nil {
		if c.DSS.SubsetSize < 1 {
			return fmt.Errorf("lgp: DSS subset size %d < 1", c.DSS.SubsetSize)
		}
		if c.DSS.Interval < 1 {
			return fmt.Errorf("lgp: DSS interval %d < 1", c.DSS.Interval)
		}
	}
	return nil
}

// Example is one training pattern sequence: the ordered input vectors of
// a document's member words and the target label (+1 in-class, -1
// out-class).
type Example struct {
	Inputs [][]float64
	Label  float64
}

// Result is the outcome of a training run.
type Result struct {
	// Best is the best program by full-training-set fitness.
	Best *Program
	// Fitness is Best's sum-squared-error over the full training set
	// (Equation 5).
	Fitness float64
	// BestHistory records the tournament-best fitness (on the active
	// subset) at every tournament — used by the dynamic page-size
	// schedule and useful for convergence plots.
	BestHistory []float64
	// PageSizeHistory records the dynamic page size after each
	// tournament.
	PageSizeHistory []int
}

// Trainer evolves programs against a training set.
type Trainer struct {
	cfg      Config
	examples []Example
	rng      *rand.Rand
	pop      []*Program
	machine  *Machine
	workers  int
	// machines holds one reusable Machine per evaluation worker; worker w
	// always uses machines[w], so no allocation happens in the fan-out.
	machines []*Machine

	// evaluation scratch, reused across tournaments
	fullIdx   []int // 0..len(examples)-1, for FullFitness
	tourIdx   []int // contestant population indices
	tourProgs []*Program
	tourFit   []float64
	tourSeen  []bool // len(pop), reset via tourIdx after each draw
	stale     []int  // contestants to evaluate this tournament

	// Tournament memo, one slot per population index. While
	// slotFresh[i] holds, slotFit[i] is pop[i]'s fitness on the active
	// subset and, under DSS, slotOut[i*outStride:][:len(subset)] its
	// output on each subset example. Evaluation is pure, so a program
	// that is neither replaced nor re-scored against a new subset keeps
	// its values; a child overwriting the slot or a subset reselection
	// makes it stale. Without DSS nothing reads outputs, so none are kept.
	slotFit   []float64
	slotOut   []float64
	slotFresh []bool
	outStride int

	// dynamic page size state
	pageSize    int
	windowSum   float64
	windowCount int
	prevWindow  float64
	havePrev    bool

	// DSS state
	subset     []int
	difficulty []float64
	age        []float64
}

// NewTrainer validates the configuration and initialises the population
// (uniform number of pages over [1, MaxPages], each page MaxPageSize
// instructions).
func NewTrainer(cfg Config, examples []Example) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("lgp: no training examples")
	}
	for i, ex := range examples {
		for j, in := range ex.Inputs {
			if len(in) != cfg.NumInputs {
				return nil, fmt.Errorf("lgp: example %d input %d has dim %d, want %d", i, j, len(in), cfg.NumInputs)
			}
		}
	}
	// One evaluation machine per GOMAXPROCS; GOMAXPROCS 1 takes fanOut's
	// serial path, and the results are the same bits either way.
	workers := runtime.GOMAXPROCS(0)
	t := &Trainer{
		cfg:      cfg,
		examples: examples,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		machine:  NewMachine(cfg.NumRegisters),
		workers:  workers,
		pageSize: 1,
	}
	t.machines = make([]*Machine, workers)
	for i := range t.machines {
		t.machines[i] = NewMachine(cfg.NumRegisters)
	}
	t.fullIdx = make([]int, len(examples))
	for i := range t.fullIdx {
		t.fullIdx[i] = i
	}
	t.tourIdx = make([]int, 0, cfg.TournamentSize)
	t.tourProgs = make([]*Program, cfg.TournamentSize)
	t.tourFit = make([]float64, cfg.TournamentSize)
	t.tourSeen = make([]bool, cfg.PopulationSize)
	t.stale = make([]int, 0, cfg.TournamentSize)
	t.slotFit = make([]float64, cfg.PopulationSize)
	t.slotFresh = make([]bool, cfg.PopulationSize)
	if cfg.DSS != nil {
		t.outStride = min(cfg.DSS.SubsetSize, len(examples))
		t.slotOut = make([]float64, cfg.PopulationSize*t.outStride)
	}
	t.pop = make([]*Program, cfg.PopulationSize)
	for i := range t.pop {
		pages := 1 + t.rng.Intn(cfg.MaxPages)
		code := make([]Instruction, pages*cfg.MaxPageSize)
		for j := range code {
			code[j] = randomInstruction(t.rng, &cfg)
		}
		t.pop[i] = &Program{Code: code}
	}
	if cfg.DSS != nil {
		t.difficulty = make([]float64, len(examples))
		t.age = make([]float64, len(examples))
		t.selectSubset()
	} else {
		t.subset = make([]int, len(examples))
		for i := range t.subset {
			t.subset[i] = i
		}
	}
	return t, nil
}

// predictOn runs one example through an explicit machine — the pure
// evaluation step that worker goroutines share-nothing over.
func (t *Trainer) predictOn(m *Machine, p *Program, ex *Example) float64 {
	if t.cfg.Recurrent {
		return m.RunSequence(p, ex.Inputs)
	}
	return m.RunSequenceNonRecurrent(p, ex.Inputs)
}

// fitnessOn computes the configured objective of p over the example
// indices. Lower is better. FitnessSSE is Equation 5; FitnessF1 is
// (1-F1)·n plus a small SSE tie-breaker.
func (t *Trainer) fitnessOn(p *Program, idxs []int) float64 {
	return t.fitnessOnMachine(t.machine, p, idxs, nil)
}

// fitnessOnMachine is fitnessOn on an explicit machine. When outs is
// non-nil it also records the output on idxs[k] in outs[k].
func (t *Trainer) fitnessOnMachine(m *Machine, p *Program, idxs []int, outs []float64) float64 {
	var sse float64
	var tp, fp, fn int
	for k, i := range idxs {
		out := t.predictOn(m, p, &t.examples[i])
		if outs != nil {
			outs[k] = out
		}
		diff := t.examples[i].Label - out
		sse += diff * diff
		if t.cfg.Fitness == FitnessF1 {
			predicted := out > 0
			actual := t.examples[i].Label > 0
			switch {
			case actual && predicted:
				tp++
			case actual && !predicted:
				fn++
			case !actual && predicted:
				fp++
			}
		}
	}
	if t.cfg.Fitness != FitnessF1 {
		return sse
	}
	f1 := 0.0
	if den := 2*tp + fp + fn; den > 0 {
		f1 = 2 * float64(tp) / float64(den)
	}
	return (1-f1)*float64(len(idxs)) + 0.001*sse
}

// FullFitness computes Equation 5 over the entire training set.
func (t *Trainer) FullFitness(p *Program) float64 {
	return t.fitnessOn(p, t.fullIdx)
}

// fanOut runs eval(m, j) for every j in [0, n), spreading the (pure,
// independent) evaluations over the trainer's worker machines: worker w
// takes j = w, w+workers, ... on machines[w]. Each call writes only its
// own outputs, so the results — and therefore the whole evolutionary
// trajectory — are bit-identical to the serial path for any worker
// count.
func (t *Trainer) fanOut(n int, eval func(m *Machine, j int)) {
	workers := min(t.workers, n)
	if workers <= 1 {
		for j := 0; j < n; j++ {
			eval(t.machines[0], j)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int, m *Machine) {
			defer wg.Done()
			for j := w; j < n; j += workers {
				eval(m, j)
			}
		}(w, t.machines[w])
	}
	wg.Wait()
}

// evalSlot scores pop[i] on the active subset into its memo slot,
// recording its subset outputs too under DSS.
func (t *Trainer) evalSlot(m *Machine, i int) {
	var outs []float64
	if t.slotOut != nil {
		outs = t.slotOut[i*t.outStride:][:len(t.subset)]
	}
	t.slotFit[i] = t.fitnessOnMachine(m, t.pop[i], t.subset, outs)
	t.slotFresh[i] = true
}

// selectSubset draws a new DSS subset by roulette over
// difficulty^d + age^a weights, without replacement. With Stratify set,
// in-class and out-class examples are drawn separately in proportion to
// their training shares (at least one each). Selected examples have
// their age reset; all others age by one.
func (t *Trainer) selectSubset() {
	dss := t.cfg.DSS
	n := len(t.examples)
	size := dss.SubsetSize
	if size > n {
		size = n
	}
	dExp, aExp := dss.DifficultyExp, dss.AgeExp
	if dExp == 0 {
		dExp = 1
	}
	if aExp == 0 {
		aExp = 1
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = powf(t.difficulty[i], dExp) + powf(t.age[i], aExp) + 1
	}

	chosen := make(map[int]bool, size)
	t.subset = t.subset[:0]
	if dss.Stratify {
		var pos, neg []int
		for i := range t.examples {
			if t.examples[i].Label > 0 {
				pos = append(pos, i)
			} else {
				neg = append(neg, i)
			}
		}
		posQuota := size * len(pos) / n
		if posQuota < 1 && len(pos) > 0 {
			posQuota = 1
		}
		if posQuota > len(pos) {
			posQuota = len(pos)
		}
		negQuota := size - posQuota
		if negQuota > len(neg) {
			negQuota = len(neg)
		}
		t.drawFrom(pos, posQuota, weights, chosen)
		t.drawFrom(neg, negQuota, weights, chosen)
	} else {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		t.drawFrom(all, size, weights, chosen)
	}
	for i := range t.age {
		if chosen[i] {
			t.age[i] = 0
		} else {
			t.age[i]++
		}
	}
	clear(t.slotFresh) // every memoised value was on the old subset
}

// drawFrom roulette-selects count distinct indices from pool into the
// subset, weighted by weights.
func (t *Trainer) drawFrom(pool []int, count int, weights []float64, chosen map[int]bool) {
	var total float64
	for _, i := range pool {
		total += weights[i]
	}
	for k := 0; k < count; k++ {
		x := t.rng.Float64() * total
		idx := -1
		for _, i := range pool {
			if chosen[i] {
				continue
			}
			if x < weights[i] {
				idx = i
				break
			}
			x -= weights[i]
		}
		if idx < 0 { // numerical fallthrough: take first unchosen
			for _, i := range pool {
				if !chosen[i] {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return // pool exhausted
		}
		chosen[idx] = true
		total -= weights[idx]
		t.subset = append(t.subset, idx)
	}
}

func powf(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	// Small integer exponents dominate in practice. The dispatch is on
	// exact bit patterns: exponents come verbatim from config, so only
	// a literal 1, 2 or 3 takes a fast path.
	switch math.Float64bits(exp) {
	case math.Float64bits(1):
		return base
	case math.Float64bits(2):
		return base * base
	case math.Float64bits(3):
		return base * base * base
	}
	out := 1.0
	for i := 0; i < int(exp); i++ {
		out *= base
	}
	return out
}

// updateDifficulty bumps the difficulty of subset examples the program
// in population slot win misclassified and decays the rest. It reads
// the slot's memoised outputs, evaluating only when a child has
// overwritten the slot since its contest (tournaments of two, where the
// second child replaces the winner).
func (t *Trainer) updateDifficulty(win int) {
	if t.cfg.DSS == nil {
		return
	}
	if !t.slotFresh[win] {
		t.evalSlot(t.machine, win)
	}
	outs := t.slotOut[win*t.outStride:][:len(t.subset)]
	for k, i := range t.subset {
		if outs[k]*t.examples[i].Label <= 0 {
			t.difficulty[i]++
		} else if t.difficulty[i] > 0 {
			t.difficulty[i]--
		}
	}
}

// Run executes the configured number of steady-state tournaments and
// returns the best individual by full-training-set fitness.
func (t *Trainer) Run() *Result {
	res := &Result{
		BestHistory:     make([]float64, 0, t.cfg.Tournaments),
		PageSizeHistory: make([]int, 0, t.cfg.Tournaments),
	}
	traced := t.cfg.Trace != nil
	for tour := 0; tour < t.cfg.Tournaments; tour++ {
		if t.cfg.DSS != nil && tour > 0 && tour%t.cfg.DSS.Interval == 0 {
			t.selectSubset()
		}
		var start time.Time
		if traced {
			start = time.Now()
		}
		best := t.tournament()
		res.BestHistory = append(res.BestHistory, best)
		t.trackPlateau(best)
		res.PageSizeHistory = append(res.PageSizeHistory, t.pageSize)
		if traced {
			var sum, lenSum float64
			k := t.cfg.TournamentSize
			for i := 0; i < k; i++ {
				sum += t.tourFit[i]
				lenSum += float64(len(t.tourProgs[i].Code))
			}
			t.cfg.Trace(TournamentStats{
				Tournament: tour,
				Best:       best,
				Mean:       sum / float64(k),
				MeanLen:    lenSum / float64(k),
				PageSize:   t.pageSize,
				SubsetSize: len(t.subset),
				Duration:   time.Since(start),
			})
		}
	}
	// Final model selection over the population on the full training set,
	// evaluated in parallel (pure) with a deterministic serial argmin.
	fits := make([]float64, len(t.pop))
	t.fanOut(len(t.pop), func(m *Machine, i int) {
		fits[i] = t.fitnessOnMachine(m, t.pop[i], t.fullIdx, nil)
	})
	bestIdx, bestFit := 0, fits[0]
	for i := 1; i < len(fits); i++ {
		if fits[i] < bestFit {
			bestIdx, bestFit = i, fits[i]
		}
	}
	res.Best = t.pop[bestIdx].Clone()
	res.Fitness = bestFit
	return res
}

// tournament runs one steady-state tournament of TournamentSize
// contestants: the two fittest reproduce, their children (after
// variation) overwrite the two least fit, and the tournament-best
// fitness is returned.
//
// All RNG draws (contestant selection) happen before the fitness
// evaluations fan out across workers; evaluation itself is pure, so the
// trajectory is bit-identical for any worker count. Only contestants
// without a fresh memo slot are evaluated; the rest reuse the fitness
// their unchanged program scored on the unchanged subset.
func (t *Trainer) tournament() float64 {
	k := t.cfg.TournamentSize
	t.tourIdx = t.tourIdx[:0]
	for len(t.tourIdx) < k {
		i := t.rng.Intn(len(t.pop))
		if !t.tourSeen[i] {
			t.tourSeen[i] = true
			t.tourIdx = append(t.tourIdx, i)
		}
	}
	t.stale = t.stale[:0]
	for _, i := range t.tourIdx {
		t.tourSeen[i] = false
		if !t.slotFresh[i] {
			t.stale = append(t.stale, i)
		}
	}
	t.fanOut(len(t.stale), func(m *Machine, j int) { t.evalSlot(m, t.stale[j]) })
	fit := t.tourFit[:k]
	for i, pi := range t.tourIdx {
		t.tourProgs[i] = t.pop[pi]
		fit[i] = t.slotFit[pi]
	}
	// Sort contestants ascending by fitness (lower SSE is better),
	// carrying the population indices along.
	idx := t.tourIdx
	for i := 1; i < k; i++ {
		for j := i; j > 0 && fit[j] < fit[j-1]; j-- {
			fit[j], fit[j-1] = fit[j-1], fit[j]
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	child1 := t.pop[idx[0]].Clone()
	child2 := t.pop[idx[1]].Clone()
	t.vary(child1, child2)
	t.pop[idx[k-1]] = child1
	t.pop[idx[k-2]] = child2
	t.slotFresh[idx[k-1]] = false
	t.slotFresh[idx[k-2]] = false
	t.updateDifficulty(idx[0])
	return fit[0]
}

// vary applies the three variation operators additively (each with its
// own probability, possibly all three) to the two children.
func (t *Trainer) vary(a, b *Program) {
	if t.rng.Float64() < t.cfg.PCrossover {
		t.crossover(a, b)
	}
	if t.rng.Float64() < t.cfg.PMutate {
		t.mutate(a)
	}
	if t.rng.Float64() < t.cfg.PMutate {
		t.mutate(b)
	}
	if t.rng.Float64() < t.cfg.PSwap {
		t.swap(a)
	}
	if t.rng.Float64() < t.cfg.PSwap {
		t.swap(b)
	}
}

// crossover exchanges one page of the current dynamic page size between
// the two programs. Pages need not be aligned across parents but always
// hold the same number of instructions, so lengths are preserved.
func (t *Trainer) crossover(a, b *Program) {
	ps := t.pageSize
	na, nb := len(a.Code)/ps, len(b.Code)/ps
	if na == 0 || nb == 0 {
		return
	}
	pa, pb := t.rng.Intn(na)*ps, t.rng.Intn(nb)*ps
	for i := 0; i < ps; i++ {
		a.Code[pa+i], b.Code[pb+i] = b.Code[pb+i], a.Code[pa+i]
	}
}

// mutate XORs one instruction with a freshly generated instruction (the
// paper's 'Mutation' operator).
func (t *Trainer) mutate(p *Program) {
	i := t.rng.Intn(len(p.Code))
	p.Code[i] ^= randomInstruction(t.rng, &t.cfg)
}

// swap interchanges two uniformly chosen instructions within the same
// individual (the paper's 'Swap' operator: right instruction mix, wrong
// order).
func (t *Trainer) swap(p *Program) {
	i, j := t.rng.Intn(len(p.Code)), t.rng.Intn(len(p.Code))
	p.Code[i], p.Code[j] = p.Code[j], p.Code[i]
}

// trackPlateau implements the dynamic page-size schedule: tournament-best
// fitnesses are summed over consecutive non-overlapping windows of
// PlateauWindow tournaments; equal sums in adjacent windows define a
// plateau, which doubles the page size (wrapping to 1 past MaxPageSize).
func (t *Trainer) trackPlateau(best float64) {
	t.windowSum += best
	t.windowCount++
	if t.windowCount < t.cfg.PlateauWindow {
		return
	}
	// Bit-identical window sums define the plateau: the sums aggregate
	// the same deterministic fitness values, so an exactly repeated
	// window really does repeat bit for bit.
	if t.havePrev && math.Float64bits(t.windowSum) == math.Float64bits(t.prevWindow) {
		t.pageSize *= 2
		if t.pageSize > t.cfg.MaxPageSize {
			t.pageSize = 1
		}
	}
	t.prevWindow = t.windowSum
	t.havePrev = true
	t.windowSum = 0
	t.windowCount = 0
}

// PageSize exposes the current dynamic page size (for tests).
func (t *Trainer) PageSize() int { return t.pageSize }

// Subset returns a copy of the active DSS subset indices (for tests and
// diagnostics). The copy allocates on every call — hoist it out of loops;
// the trainer itself always uses the internal slice directly.
func (t *Trainer) Subset() []int { return append([]int(nil), t.subset...) }
