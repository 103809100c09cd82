package lgp

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.PopulationSize = 30
	cfg.Tournaments = 300
	cfg.MaxPages = 4
	cfg.MaxPageSize = 4
	cfg.DSS = nil
	cfg.Seed = 1
	return cfg
}

// --- instruction ---

func TestPackDecodeRoundTrip(t *testing.T) {
	in := pack(ModeExternal, OpDiv, 5, 200)
	if in.Mode() != ModeExternal {
		t.Errorf("Mode = %d", in.Mode())
	}
	if in.Opcode() != OpDiv {
		t.Errorf("Opcode = %d", in.Opcode())
	}
	if in.Dst(8) != 5 {
		t.Errorf("Dst = %d", in.Dst(8))
	}
	if in.SrcInput(256) != 200 {
		t.Errorf("SrcInput = %d", in.SrcInput(256))
	}
}

// Syntactic closure: any 32-bit pattern decodes to in-range fields.
func TestInstructionClosureProperty(t *testing.T) {
	f := func(raw uint32) bool {
		in := Instruction(raw)
		if m := in.Mode(); m < 0 || m > 2 {
			return false
		}
		if op := in.Opcode(); op < 0 || op > 3 {
			return false
		}
		if d := in.Dst(8); d < 0 || d > 7 {
			return false
		}
		if s := in.SrcReg(8); s < 0 || s > 7 {
			return false
		}
		if s := in.SrcInput(2); s < 0 || s > 1 {
			return false
		}
		if c := in.Const(); c < -1 || c > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDisassembleNotation(t *testing.T) {
	in := pack(ModeExternal, OpSub, 1, 1)
	if got := in.Disassemble(8, 2); got != "R1=R1-I1" {
		t.Errorf("Disassemble = %q", got)
	}
	in = pack(ModeInternal, OpMul, 0, 3)
	if got := in.Disassemble(8, 2); got != "R0=R0*R3" {
		t.Errorf("Disassemble = %q", got)
	}
	in = pack(ModeConstant, OpAdd, 2, 255)
	if got := in.Disassemble(8, 2); got != "R2=R2+1.00" {
		t.Errorf("Disassemble = %q", got)
	}
}

func TestProgramDisassembleJoins(t *testing.T) {
	p := &Program{Code: []Instruction{
		pack(ModeExternal, OpSub, 1, 1),
		pack(ModeInternal, OpAdd, 0, 1),
	}}
	got := p.Disassemble(8, 2)
	if !strings.Contains(got, "; ") || !strings.HasPrefix(got, "R1=R1-I1") {
		t.Errorf("Disassemble = %q", got)
	}
}

func TestEffectiveLength(t *testing.T) {
	// R3 is never read into R0's dependency chain -> intron.
	p := &Program{Code: []Instruction{
		pack(ModeExternal, OpAdd, 3, 0), // intron
		pack(ModeExternal, OpAdd, 1, 0), // feeds R1
		pack(ModeInternal, OpAdd, 0, 1), // R0 += R1
	}}
	if got := p.EffectiveLength(8); got != 2 {
		t.Errorf("EffectiveLength = %d, want 2", got)
	}
	empty := &Program{}
	if got := empty.EffectiveLength(8); got != 0 {
		t.Errorf("EffectiveLength(empty) = %d", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := &Program{Code: []Instruction{1, 2, 3}}
	c := p.Clone()
	c.Code[0] = 99
	if p.Code[0] != 1 {
		t.Error("Clone shares code")
	}
}

func TestRandomInstructionRespectsRatios(t *testing.T) {
	cfg := DefaultConfig() // constants ratio 0
	rng := rand.New(rand.NewSource(1))
	counts := [3]int{}
	for i := 0; i < 5000; i++ {
		counts[randomInstruction(rng, &cfg).Mode()]++
	}
	if counts[ModeConstant] != 0 {
		t.Errorf("constants generated despite zero ratio: %d", counts[ModeConstant])
	}
	// Internal:External = 4:1.
	ratio := float64(counts[ModeInternal]) / float64(counts[ModeExternal])
	if ratio < 3 || ratio > 5.5 {
		t.Errorf("internal/external ratio = %v, want ~4", ratio)
	}
}

// --- machine ---

func TestStepArithmetic(t *testing.T) {
	m := NewMachine(8)
	p := &Program{Code: []Instruction{
		pack(ModeExternal, OpAdd, 0, 0),   // R0 += I0
		pack(ModeExternal, OpMul, 0, 1),   // R0 *= I1
		pack(ModeConstant, OpSub, 0, 255), // R0 -= 1.0
	}}
	m.Step(p, []float64{3, 2})
	if got := m.Output(); math.Abs(got-5) > 1e-12 {
		t.Errorf("R0 = %v, want 5", got)
	}
}

func TestProtectedDivision(t *testing.T) {
	m := NewMachine(8)
	m.Registers()[0] = 7
	p := &Program{Code: []Instruction{pack(ModeExternal, OpDiv, 0, 0)}}
	m.Step(p, []float64{0})
	if got := m.Output(); got != 7 {
		t.Errorf("division by zero changed register: %v", got)
	}
}

func TestRegisterClamping(t *testing.T) {
	m := NewMachine(8)
	m.Registers()[0] = 1e5
	p := &Program{Code: []Instruction{pack(ModeInternal, OpMul, 0, 0)}}
	for i := 0; i < 10; i++ {
		m.Step(p, nil)
	}
	if got := m.Output(); got > regClamp || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("clamping failed: %v", got)
	}
}

func TestSquashRangeAndValues(t *testing.T) {
	if got := Squash(0); got != 0 {
		t.Errorf("Squash(0) = %v", got)
	}
	if got := Squash(1e9); math.Abs(got-1) > 1e-9 {
		t.Errorf("Squash(+inf) = %v", got)
	}
	if got := Squash(-1e9); math.Abs(got+1) > 1e-9 {
		t.Errorf("Squash(-inf) = %v", got)
	}
	f := func(x float64) bool {
		s := Squash(x)
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRunSequenceRecurrence(t *testing.T) {
	// R0 accumulates I0 across patterns only in recurrent mode.
	p := &Program{Code: []Instruction{pack(ModeExternal, OpAdd, 0, 0)}}
	m := NewMachine(8)
	seq := [][]float64{{1, 0}, {1, 0}, {1, 0}}
	rec := m.RunSequence(p, seq)
	non := m.RunSequenceNonRecurrent(p, seq)
	if rec <= non {
		t.Errorf("recurrent %v not greater than non-recurrent %v", rec, non)
	}
	if want := Squash(3); math.Abs(rec-want) > 1e-12 {
		t.Errorf("recurrent = %v, want %v", rec, want)
	}
	if want := Squash(1); math.Abs(non-want) > 1e-12 {
		t.Errorf("non-recurrent = %v, want %v", non, want)
	}
}

func TestRunSequenceEmpty(t *testing.T) {
	p := &Program{Code: []Instruction{pack(ModeExternal, OpAdd, 0, 0)}}
	m := NewMachine(8)
	if got := m.RunSequence(p, nil); got != 0 {
		t.Errorf("empty sequence = %v, want 0", got)
	}
}

// TestEmptySequenceKeepsDecode: a document with no member words yields
// an empty sequence between width-2 ones; it must neither evict the
// width-2 decode nor change any output.
func TestEmptySequenceKeepsDecode(t *testing.T) {
	p := &Program{Code: []Instruction{pack(ModeExternal, OpAdd, 0, 0)}}
	seq := [][]float64{{1, 0}, {1, 0}}
	last := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)-1]
	}
	runs := map[string]func(*Machine, [][]float64) float64{
		"RunSequence": func(m *Machine, s [][]float64) float64 { return m.RunSequence(p, s) },
		"RunSequenceNonRecurrent": func(m *Machine, s [][]float64) float64 {
			return m.RunSequenceNonRecurrent(p, s)
		},
		"Trace": func(m *Machine, s [][]float64) float64 { return last(m.Trace(p, s)) },
	}
	for name, run := range runs {
		want := run(NewMachine(8), seq)
		m := NewMachine(8)
		if got := run(m, seq); got != want {
			t.Errorf("%s: width-2 output = %v, want %v", name, got, want)
		}
		if got := run(m, nil); got != 0 {
			t.Errorf("%s: empty output = %v, want 0", name, got)
		}
		if m.progSrc != p || m.progNIn != 2 {
			t.Errorf("%s: empty sequence replaced the width-2 decode (width now %d)", name, m.progNIn)
		}
		if got := run(m, seq); got != want {
			t.Errorf("%s: width-2 output after empty = %v, want %v", name, got, want)
		}
	}
	if tr := NewMachine(8).Trace(p, nil); tr == nil || len(tr) != 0 {
		t.Errorf("Trace(empty) = %#v, want an empty non-nil slice", tr)
	}
}

func TestTraceMatchesStepwise(t *testing.T) {
	p := &Program{Code: []Instruction{pack(ModeExternal, OpAdd, 0, 0)}}
	m := NewMachine(8)
	seq := [][]float64{{1, 0}, {-2, 0}, {0.5, 0}}
	trace := m.Trace(p, seq)
	if len(trace) != 3 {
		t.Fatalf("trace length %d", len(trace))
	}
	want := []float64{Squash(1), Squash(-1), Squash(-0.5)}
	for i := range want {
		if math.Abs(trace[i]-want[i]) > 1e-12 {
			t.Errorf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
	// Final trace value equals RunSequence.
	if final := m.RunSequence(p, seq); math.Abs(final-trace[2]) > 1e-12 {
		t.Errorf("RunSequence %v != trace end %v", final, trace[2])
	}
}

// --- trainer ---

func TestNewTrainerValidation(t *testing.T) {
	good := testCfg()
	ex := []Example{{Inputs: [][]float64{{0, 0}}, Label: 1}}
	if _, err := NewTrainer(good, nil); err == nil {
		t.Error("no examples accepted")
	}
	bad := good
	bad.PopulationSize = 2
	if _, err := NewTrainer(bad, ex); err == nil {
		t.Error("tiny population accepted")
	}
	bad = good
	bad.MaxPageSize = 3
	if _, err := NewTrainer(bad, ex); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	bad = good
	bad.NumRegisters = 9
	if _, err := NewTrainer(bad, ex); err == nil {
		t.Error("9 registers accepted")
	}
	wrongDim := []Example{{Inputs: [][]float64{{1, 2, 3}}, Label: 1}}
	if _, err := NewTrainer(good, wrongDim); err == nil {
		t.Error("wrong input dimension accepted")
	}
	bad = good
	bad.DSS = &DSSConfig{SubsetSize: 0, Interval: 10}
	if _, err := NewTrainer(bad, ex); err == nil {
		t.Error("zero DSS subset accepted")
	}
}

func TestInitialPopulationLengths(t *testing.T) {
	cfg := testCfg()
	ex := []Example{{Inputs: [][]float64{{0, 0}}, Label: 1}}
	tr, err := NewTrainer(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.pop {
		if len(p.Code)%cfg.MaxPageSize != 0 {
			t.Errorf("individual %d length %d not a page multiple", i, len(p.Code))
		}
		if len(p.Code) == 0 || len(p.Code) > cfg.MaxPages*cfg.MaxPageSize {
			t.Errorf("individual %d length %d out of bounds", i, len(p.Code))
		}
	}
}

// accumulationExamples builds a temporal task solvable by R0 += I0: the
// in-class sequences carry positive I0 values, out-class negative.
func accumulationExamples(rng *rand.Rand, n int) []Example {
	out := make([]Example, 0, 2*n)
	for i := 0; i < n; i++ {
		length := 5 + rng.Intn(6)
		pos := make([][]float64, length)
		neg := make([][]float64, length)
		for j := 0; j < length; j++ {
			pos[j] = []float64{0.3 + rng.Float64()*0.4, rng.Float64()}
			neg[j] = []float64{-0.3 - rng.Float64()*0.4, rng.Float64()}
		}
		out = append(out, Example{Inputs: pos, Label: 1}, Example{Inputs: neg, Label: -1})
	}
	return out
}

func TestEvolutionLearnsAccumulationTask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	examples := accumulationExamples(rng, 15)
	cfg := testCfg()
	tr, err := NewTrainer(cfg, examples)
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Run()
	if res.Best == nil {
		t.Fatal("no best program")
	}
	// The evolved rule must classify most training examples correctly.
	m := NewMachine(cfg.NumRegisters)
	correct := 0
	for _, ex := range examples {
		out := m.RunSequence(res.Best, ex.Inputs)
		if out*ex.Label > 0 {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(examples)); frac < 0.8 {
		t.Errorf("accuracy %v < 0.8 after evolution (fitness %v)", frac, res.Fitness)
	}
	if len(res.BestHistory) != cfg.Tournaments {
		t.Errorf("history length %d", len(res.BestHistory))
	}
}

func TestEvolutionDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	examples := accumulationExamples(rng, 5)
	cfg := testCfg()
	cfg.Tournaments = 50
	run := func() *Result {
		tr, err := NewTrainer(cfg, examples)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Best.Code, b.Best.Code) || a.Fitness != b.Fitness {
		t.Error("evolution not deterministic for fixed seed")
	}
}

func TestDSSSubsetMechanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	examples := accumulationExamples(rng, 20) // 40 examples
	cfg := testCfg()
	cfg.DSS = &DSSConfig{SubsetSize: 10, Interval: 5}
	tr, err := NewTrainer(cfg, examples)
	if err != nil {
		t.Fatal(err)
	}
	s1 := tr.Subset()
	if len(s1) != 10 {
		t.Fatalf("subset size %d, want 10", len(s1))
	}
	seen := map[int]bool{}
	for _, i := range s1 {
		if seen[i] {
			t.Fatalf("duplicate index %d in subset", i)
		}
		seen[i] = true
		if i < 0 || i >= len(examples) {
			t.Fatalf("index %d out of range", i)
		}
	}
	// Re-selection must (eventually) change the subset.
	changed := false
	for k := 0; k < 5 && !changed; k++ {
		tr.selectSubset()
		changed = !reflect.DeepEqual(s1, tr.Subset())
	}
	if !changed {
		t.Error("subset never changes")
	}
}

func TestDSSSubsetLargerThanDataset(t *testing.T) {
	ex := []Example{
		{Inputs: [][]float64{{1, 0}}, Label: 1},
		{Inputs: [][]float64{{-1, 0}}, Label: -1},
	}
	cfg := testCfg()
	cfg.DSS = &DSSConfig{SubsetSize: 50, Interval: 5}
	tr, err := NewTrainer(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Subset()); got != 2 {
		t.Errorf("subset size %d, want clamped 2", got)
	}
}

func TestDSSBiasesTowardsDifficult(t *testing.T) {
	// With strong difficulty on one example, it should appear in nearly
	// every re-selected subset.
	ex := make([]Example, 40)
	for i := range ex {
		ex[i] = Example{Inputs: [][]float64{{1, 0}}, Label: 1}
	}
	cfg := testCfg()
	cfg.DSS = &DSSConfig{SubsetSize: 5, Interval: 5}
	tr, err := NewTrainer(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	tr.difficulty[7] = 1000
	hits := 0
	for k := 0; k < 20; k++ {
		tr.selectSubset()
		for _, i := range tr.Subset() {
			if i == 7 {
				hits++
			}
		}
	}
	if hits < 15 {
		t.Errorf("difficult example selected %d/20 times", hits)
	}
}

func TestPlateauDoublesPageSize(t *testing.T) {
	ex := []Example{{Inputs: [][]float64{{1, 0}}, Label: 1}}
	cfg := testCfg()
	cfg.PlateauWindow = 2
	tr, err := NewTrainer(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PageSize() != 1 {
		t.Fatalf("initial page size %d", tr.PageSize())
	}
	// Two identical windows -> plateau -> double.
	tr.trackPlateau(5)
	tr.trackPlateau(5) // window 1 done: sum 10
	tr.trackPlateau(5)
	tr.trackPlateau(5) // window 2 done: sum 10 == prev -> plateau
	if tr.PageSize() != 2 {
		t.Errorf("page size after plateau = %d, want 2", tr.PageSize())
	}
	// Changing fitness -> no plateau.
	tr.trackPlateau(4)
	tr.trackPlateau(5)
	if tr.PageSize() != 2 {
		t.Errorf("page size changed without plateau: %d", tr.PageSize())
	}
}

func TestPageSizeWrapsAfterMax(t *testing.T) {
	ex := []Example{{Inputs: [][]float64{{1, 0}}, Label: 1}}
	cfg := testCfg()
	cfg.PlateauWindow = 1
	cfg.MaxPageSize = 4
	tr, err := NewTrainer(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{tr.PageSize()}
	for i := 0; i < 8; i++ {
		tr.trackPlateau(1)
		sizes = append(sizes, tr.PageSize())
	}
	// 1 -> 2 -> 4 -> wrap to 1 -> 2 ...
	found := false
	for i := 1; i < len(sizes); i++ {
		if sizes[i-1] == cfg.MaxPageSize && sizes[i] == 1 {
			found = true
		}
		if sizes[i] > cfg.MaxPageSize {
			t.Fatalf("page size %d exceeds max", sizes[i])
		}
	}
	if !found {
		t.Errorf("page size never wrapped: %v", sizes)
	}
}

func TestCrossoverPreservesLengths(t *testing.T) {
	cfg := testCfg()
	ex := []Example{{Inputs: [][]float64{{1, 0}}, Label: 1}}
	tr, err := NewTrainer(cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	a := &Program{Code: make([]Instruction, 8)}
	b := &Program{Code: make([]Instruction, 16)}
	for i := range a.Code {
		a.Code[i] = Instruction(i + 1)
	}
	for i := range b.Code {
		b.Code[i] = Instruction(100 + i)
	}
	tr.pageSize = 4
	tr.crossover(a, b)
	if len(a.Code) != 8 || len(b.Code) != 16 {
		t.Errorf("lengths changed: %d, %d", len(a.Code), len(b.Code))
	}
	// Multiset of instructions preserved across both programs.
	count := map[Instruction]int{}
	for _, in := range a.Code {
		count[in]++
	}
	for _, in := range b.Code {
		count[in]++
	}
	for i := 1; i <= 8; i++ {
		if count[Instruction(i)] != 1 {
			t.Fatalf("instruction %d lost or duplicated", i)
		}
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PopulationSize != 125 || cfg.Tournaments != 48000 ||
		cfg.TournamentSize != 4 || cfg.NumRegisters != 8 {
		t.Errorf("core params: %+v", cfg)
	}
	if cfg.MaxPages*cfg.MaxPageSize != 256 {
		t.Errorf("node limit = %d, want 256", cfg.MaxPages*cfg.MaxPageSize)
	}
	if cfg.PCrossover != 0.9 || cfg.PMutate != 0.5 || cfg.PSwap != 0.9 {
		t.Errorf("variation probabilities: %+v", cfg)
	}
	if cfg.ConstantRatio != 0 || cfg.InternalRatio != 4 || cfg.ExternalRatio != 1 {
		t.Errorf("instruction ratios: %+v", cfg)
	}
	if !cfg.Recurrent {
		t.Error("default not recurrent")
	}
}
