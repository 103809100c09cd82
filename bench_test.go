package temporaldoc

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1FeatureCounts      Table 1
//	BenchmarkTable2GPParameters       Table 2
//	BenchmarkTable4ProSysAllSelections Table 4
//	BenchmarkTable5ComparisonMI       Table 5
//	BenchmarkTable6ComparisonIG       Table 6
//	BenchmarkFigure3WordBMUMapping    Figure 3
//	BenchmarkFigure5SingleLabelTrace  Figure 5
//	BenchmarkFigure6MultiLabelTrace   Figure 6
//	BenchmarkAblations                DESIGN.md ablation suite
//
// Benchmarks run the smoke profile so `go test -bench=.` completes in
// minutes; `cmd/benchtables -profile quick|full` runs the same
// experiments at larger scales. Each iteration starts a fresh
// experiments.Run, so it times the training its table or figure needs.
// F1 outcomes are attached to each bench via ReportMetric
// (microF1/macroF1), so the harness records both speed and result shape.

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/experiments"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/som"
	"temporaldoc/internal/telemetry"
)

var (
	benchOnce    sync.Once
	benchProfile experiments.Profile
	benchCorpus  *corpus.Corpus
)

func benchSetup(b *testing.B) (experiments.Profile, *corpus.Corpus) {
	b.Helper()
	benchOnce.Do(func() {
		benchProfile = experiments.SmokeProfile()
		c, err := benchProfile.Corpus()
		if err != nil {
			b.Fatalf("corpus: %v", err)
		}
		benchCorpus = c
	})
	return benchProfile, benchCorpus
}

func BenchmarkTable1FeatureCounts(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NewRun(p, c).Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable2GPParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.FormatTable2(lgp.DefaultConfig()); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4ProSysAllSelections(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewRun(p, c).Table4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(table.Micro["DF"], "microF1-DF")
		b.ReportMetric(table.Micro["MI"], "microF1-MI")
	}
}

func BenchmarkTable5ComparisonMI(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewRun(p, c).Table5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(table.Micro["ProSys"], "microF1-ProSys")
		b.ReportMetric(table.Micro["L-SVM"], "microF1-LSVM")
		b.ReportMetric(table.Micro["NB"], "microF1-NB")
	}
}

func BenchmarkTable6ComparisonIG(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewRun(p, c).Table6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(table.Micro["ProSys"], "microF1-ProSys")
		b.ReportMetric(table.Micro["Rocchio"], "microF1-Rocchio")
	}
}

func BenchmarkTableTemporalComparison(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		table, err := experiments.NewRun(p, c).TableTemporal()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(table.Micro["ProSys"], "microF1-ProSys")
		b.ReportMetric(table.Micro["SeqK"], "microF1-SeqK")
		b.ReportMetric(table.Micro["Elman"], "microF1-Elman")
	}
}

func BenchmarkFigure3WordBMUMapping(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		out, err := experiments.NewRun(p, c).Figure3("earn")
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure5SingleLabelTrace(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewRun(p, c).Figure5("earn")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Traces["earn"])), "member-words")
	}
}

func BenchmarkFigure6MultiLabelTrace(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.NewRun(p, c).Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Categories)), "labels")
	}
}

// BenchmarkAblations runs the whole suite: the paper design once and
// each ablation's alternative once.
func BenchmarkAblations(b *testing.B) {
	p, c := benchSetup(b)
	for i := 0; i < b.N; i++ {
		results, err := experiments.NewRun(p, c).Ablations()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].MicroA, "microF1-paper")
		for _, res := range results {
			b.ReportMetric(res.MicroB, "microF1-"+strings.Join(strings.Fields(res.VariantB), "_"))
		}
	}
}

// --- component micro-benchmarks ---

func BenchmarkSOMTrainCharMap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]float64, 2000)
	for i := range inputs {
		inputs[i] = []float64{1 + rng.Float64()*25, 1 + rng.Float64()*24}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := som.New(som.Config{
			Width: 7, Height: 13, Dim: 2, Epochs: 1,
			InitialLearningRate: 0.5, Seed: int64(i),
		}, 26)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Train(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoderWordVector(b *testing.B) {
	docs := map[string][]corpus.Document{
		"earn": {{ID: "e1", Words: []string{"profit", "dividend", "quarter", "shares"}}},
	}
	enc, err := hsom.Train(hsom.Config{
		CharWidth: 7, CharHeight: 13, WordWidth: 4, WordHeight: 4,
		CharEpochs: 1, WordEpochs: 1, Seed: 1,
	}, docs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := enc.WordVector("dividend"); len(v) != 91 {
			b.Fatal("bad vector")
		}
	}
}

func BenchmarkRLGPSequenceExecution(b *testing.B) {
	cfg := lgp.DefaultConfig()
	cfg.PopulationSize = 4
	cfg.Tournaments = 1
	cfg.DSS = nil
	ex := []lgp.Example{{Inputs: [][]float64{{0.5, 0.5}}, Label: 1}}
	tr, err := lgp.NewTrainer(cfg, ex)
	if err != nil {
		b.Fatal(err)
	}
	res := tr.Run()
	m := lgp.NewMachine(cfg.NumRegisters)
	seq := make([][]float64, 30)
	for i := range seq {
		seq[i] = []float64{float64(i) / 30, 0.5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunSequence(res.Best, seq)
	}
}

func BenchmarkModelScore(b *testing.B) {
	p, c := benchSetup(b)
	model, err := experiments.NewRun(p, c).Model(DF)
	if err != nil {
		b.Fatal(err)
	}
	doc := &c.Test[0]
	cat := c.Categories[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Score(cat, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelScoreTelemetry is BenchmarkModelScore with a live
// telemetry registry attached — compare the two for the
// enabled-vs-disabled scoring overhead recorded in BENCH_PR2.json
// (<5% target).
func BenchmarkModelScoreTelemetry(b *testing.B) {
	p, c := benchSetup(b)
	model, err := experiments.NewRun(p, c).Model(DF)
	if err != nil {
		b.Fatal(err)
	}
	model.AttachTelemetry(telemetry.NewRegistry())
	doc := &c.Test[0]
	cat := c.Categories[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Score(cat, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelClassify(b *testing.B) {
	p, c := benchSetup(b)
	model, err := experiments.NewRun(p, c).Model(DF)
	if err != nil {
		b.Fatal(err)
	}
	doc := &c.Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Classify(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := GenerateReutersLike(GenConfig{Scale: 0.01, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Train) == 0 {
			b.Fatal("empty corpus")
		}
	}
}
