package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/som"
	"temporaldoc/internal/textproc"
)

// trainingInput is the workload's training corpus as `tdc train -sgml`
// would see it: generated, rendered to SGML with run-seeded markup
// noise, and ingested back.
type trainingInput struct {
	cfg    core.Config
	corpus *corpus.Corpus
}

// Timing few-millisecond steps: each batch repeats the step for at least
// batchSpan and yields a per-call mean; the reported value is the median
// over setupBatches batches, so one steal burst moves one batch.
const (
	setupBatches = 15
	batchSpan    = 60 * time.Millisecond
)

// timeBatched returns the median over batches of the per-call time of
// f. Untimed calls first run for one batch span, so the heap has grown
// to its working size before timing starts: first-touch page faults are
// costly and erratic under a hypervisor, and a later call does not pay
// them.
func timeBatched(f func() error) (time.Duration, error) {
	for start := time.Now(); time.Since(start) < batchSpan; {
		if err := f(); err != nil {
			return 0, err
		}
	}
	per := make([]float64, 0, setupBatches)
	for b := 0; b < setupBatches; b++ {
		n := 0
		start := time.Now()
		for time.Since(start) < batchSpan || n == 0 {
			if err := f(); err != nil {
				return 0, err
			}
			n++
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per)), nil
}

func ingestSGML(sgml []byte) (*corpus.Corpus, error) {
	raws, err := reuters.ParseSGML(bytes.NewReader(sgml))
	if err != nil {
		return nil, err
	}
	c := reuters.BuildCorpus(raws, reuters.Top10, textproc.NewPreprocessor(textproc.Options{}))
	return c, c.Validate()
}

func (r *runner) prepareTraining() (*trainingInput, error) {
	p := r.spec.Data.profile()
	gen, err := p.Corpus()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := reuters.RenderSGML(&buf, gen, r.seed); err != nil {
		return nil, err
	}
	sgml := buf.Bytes()
	c, err := ingestSGML(sgml)
	r.led.check(err)
	if err != nil {
		return nil, fmt.Errorf("ingesting SGML: %w", err)
	}
	r.led.gate("the SGML-ingested corpus equals the generated one", sameCorpus(gen, c))
	fmt.Fprintf(r.out, "ingest: %d train / %d test docs from %d SGML bytes\n", len(c.Train), len(c.Test), len(sgml))
	// Ingest is train-quick's set-up (serve workloads time the server's
	// start instead) and a layer of every traced run.
	if r.spec.Data.Pool == "test-split" || r.traced {
		perIngest, err := timeBatched(func() error {
			_, err := ingestSGML(sgml)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("ingesting SGML: %w", err)
		}
		r.set("reuters.ingest_s", perIngest.Seconds())
		if r.spec.Data.Pool == "test-split" {
			r.set("setup_s", perIngest.Seconds())
		}
		fmt.Fprintf(r.out, "  %.3f ms per ingest\n", 1e3*perIngest.Seconds())
	}
	return &trainingInput{cfg: p.CoreConfig(featureMethod), corpus: c}, nil
}

// sameCorpus reports whether ingested is generated read back: same
// splits, words, labels and titles, with BuildCorpus's "reut-" ID
// prefix.
func sameCorpus(generated, ingested *corpus.Corpus) bool {
	same := func(a, b []corpus.Document) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if b[i].ID != "reut-"+a[i].ID || a[i].Title != b[i].Title ||
				!slices.Equal(a[i].Words, b[i].Words) || !slices.Equal(a[i].Categories, b[i].Categories) {
				return false
			}
		}
		return true
	}
	return slices.Equal(generated.Categories, ingested.Categories) &&
		same(generated.Train, ingested.Train) && same(generated.Test, ingested.Test)
}

// trainedModel is the first model a run trained and its saved snapshot.
type trainedModel struct {
	model    *core.Model
	gp       lgp.Config
	snapshot string // file path
	sha256   string
}

func snapshotBytes(m *core.Model) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:]), nil
}

// train makes the run's core.Train calls. Untraced, it reports the
// median wall and CPU time of a call; traced, each call is paired with
// the traced composition of the same steps, which yields the training
// layer table. Every call must save a byte-identical snapshot.
func (r *runner) train(in *trainingInput) (*trainedModel, error) {
	reps := r.spec.Data.TrainReps
	if r.traced && reps > 0 {
		reps = 1 // serve workloads only need the snapshot and one traced composition
	}
	var tm *trainedModel
	var walls, cpus []float64
	var rows []map[string]float64
	var passes []classifyPass
	deadline := time.Now().Add(r.window)
	for i := 0; ; i++ {
		if reps > 0 && i >= reps || reps == 0 && i >= minTrainReps && time.Now().After(deadline) {
			break
		}
		runtime.GC()
		t0, c0 := time.Now(), selfCPU()
		m, err := core.Train(in.cfg, in.corpus)
		wall, cpu := time.Since(t0), selfCPU()-c0
		r.led.check(err)
		if err != nil {
			return nil, fmt.Errorf("core.Train: %w", err)
		}
		walls, cpus = append(walls, wall.Seconds()), append(cpus, cpu.Seconds())
		b, sum, err := snapshotBytes(m)
		if err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
		if tm == nil {
			tm = &trainedModel{model: m, gp: in.cfg.GP, snapshot: filepath.Join(r.dir, "model.json"), sha256: sum}
			if err := os.WriteFile(tm.snapshot, b, 0o644); err != nil {
				return nil, err
			}
		} else {
			r.led.gate(fmt.Sprintf("training call %d saves the snapshot of call 0 (sha256 %.12s, got %.12s)", i, tm.sha256, sum), sum == tm.sha256)
		}
		if r.traced {
			row, err := r.composeTrain(in, m)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		} else if r.spec.Data.Pool == "test-split" {
			passes = append(passes, r.classifyPass(m, in.corpus.Test))
		}
	}
	r.set("train_s", median(walls))
	r.set("train_cpu_s", median(cpus))
	fmt.Fprintf(r.out, "train: %d core.Train calls, median %.3f s wall, %.3f s CPU; snapshot sha256 %s\n",
		len(walls), median(walls), median(cpus), tm.sha256)
	fmt.Fprintf(r.out, "  wall s  %s\n  cpu s   %s\n", fmtList(walls), fmtList(cpus))
	if r.traced {
		r.trainTable(rows, median(walls))
	} else if r.spec.Data.Pool == "test-split" {
		r.reportClassify(passes)
	}
	return tm, nil
}

// classifyPass is one in-process classification pass of train-quick: a
// freshly trained model classifies its test split one document at a
// time, as `tdc classify` would.
type classifyPass struct {
	latMS   []float64 // each document's latency
	perSec  float64   // documents per second of the pass
	cpuUS   float64   // process CPU µs per document
	macroF1 float64
}

func (r *runner) classifyPass(m *core.Model, docs []corpus.Document) classifyPass {
	runtime.GC()
	p := classifyPass{latMS: make([]float64, 0, len(docs))}
	set := metrics.NewSet()
	start, c0 := time.Now(), selfCPU()
	for i := range docs {
		t0 := time.Now()
		cats, err := m.Classify(&docs[i])
		p.latMS = append(p.latMS, 1e3*time.Since(t0).Seconds())
		r.led.check(err)
		for _, cat := range m.Categories() {
			set.Observe(cat, docs[i].HasCategory(cat), slices.Contains(cats, cat))
		}
	}
	wall, cpu := time.Since(start), selfCPU()-c0
	n := float64(len(docs))
	p.perSec, p.cpuUS, p.macroF1 = n/wall.Seconds(), 1e6*cpu.Seconds()/n, set.MacroF1()
	return p
}

// reportClassify sets the serving metrics of train-quick: documents per
// second and CPU per document as medians over passes, latency
// percentiles over every timed document.
func (r *runner) reportClassify(passes []classifyPass) {
	var lat, perSec, cpuUS, f1 []float64
	for _, p := range passes {
		lat = append(lat, p.latMS...)
		perSec, cpuUS, f1 = append(perSec, p.perSec), append(cpuUS, p.cpuUS), append(f1, p.macroF1)
	}
	p50, err50 := percentile(lat, 0.50)
	p90, err90 := percentile(lat, 0.90)
	r.led.check(err50)
	r.led.check(err90)
	r.set("docs_per_s", median(perSec))
	r.set("latency_p50_ms", p50)
	r.set("latency_p90_ms", p90)
	r.set("server_cpu_us_per_doc", median(cpuUS))
	r.led.gate("every pass scores the same macro-F1", slices.Min(f1) == slices.Max(f1))
	r.set("macro_f1", f1[0])
	rss, err := readPeakRSS("self")
	r.led.check(err)
	r.set("peak_rss_mb", float64(rss)/(1<<20))
	fmt.Fprintf(r.out, "classify in-process: %d passes over the test split, %d documents timed; docs/s per pass %s\n",
		len(passes), len(lat), fmtList(perSec))
}

// composedCategory is one category's outcome of the traced composition.
type composedCategory struct {
	rule      string
	fitness   float64
	threshold float64
}

// composeTrain repeats core.Train's steps through the public functions
// of featsel, hsom and lgp, with the same parallelism, and records a
// span around each call. It checks that the composition evolves the
// very programs core.Train did, and returns the rows of the training
// layer table.
func (r *runner) composeTrain(in *trainingInput, want *core.Model) (map[string]float64, error) {
	cfg, c, tr := in.cfg, in.corpus, r.tr
	if cfg.Threshold != "" && cfg.Threshold != core.ThresholdMedian {
		return nil, fmt.Errorf("the traced composition implements only the median threshold rule")
	}
	gp := cfg.GP
	gp.NumInputs = 2 // as core.Train sets it: word codes are (unit, membership)
	restarts := max(cfg.Restarts, 1)
	encCfg := cfg.Encoder
	if encCfg.Seed == 0 {
		encCfg.Seed = cfg.Seed + 1
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("train", noParent)

	sp := tr.begin("featsel.select", root)
	sel, err := featsel.Select(cfg.FeatureMethod, c.Train, c.Categories, cfg.FeatureConfig)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	keepSets := make(map[string]map[string]bool, len(c.Categories))
	perCategory := make(map[string][]corpus.Document, len(c.Categories))
	for _, cat := range c.Categories {
		inClass := c.TrainFor(cat)
		keep := ensureCoverage(sel.KeepFor(cat), inClass)
		keepSets[cat] = keep
		for _, d := range inClass {
			if fd := corpus.FilterWords(d, keep); len(fd.Words) > 0 {
				perCategory[cat] = append(perCategory[cat], fd)
			}
		}
	}

	hs := tr.begin("hsom.train", root)
	enc, err := hsom.Train(encCfg, perCategory)
	tr.end(hs)
	if err != nil {
		return nil, err
	}

	phase := tr.begin("core.category_phase", root)
	got := make(map[string]composedCategory, len(c.Categories))
	var tournaments int
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for _, cat := range c.Categories {
		wg.Add(1)
		go func(cat string) {
			defer wg.Done()
			cc, n, err := composeCategory(tr, phase, cat, c.Train, keepSets[cat], enc, gp, cfg.Seed, restarts)
			mu.Lock()
			defer mu.Unlock()
			tournaments += n
			if err != nil && firstErr == nil {
				firstErr = err
			}
			got[cat] = cc
		}(cat)
	}
	wg.Wait()
	tr.end(phase)
	tr.end(root)
	runtime.ReadMemStats(&ms1)
	if firstErr != nil {
		return nil, firstErr
	}

	for _, cat := range c.Categories {
		cm := want.CategoryModelFor(cat)
		rule, err := want.Rule(cat)
		r.led.gate(fmt.Sprintf("traced composition of %s reproduces core.Train's program, fitness and threshold", cat),
			err == nil && cm != nil && rule == got[cat].rule &&
				math.Float64bits(cm.Fitness) == math.Float64bits(got[cat].fitness) &&
				math.Float64bits(cm.Threshold) == math.Float64bits(got[cat].threshold))
	}

	// The epoch rows come from a second hsom.Train, outside the
	// composition, with the hsom.Config.Epoch callback set. The callback
	// makes hsom install a per-epoch SOM observer whose quantisation-error
	// sweep untraced training never runs, and som counts that sweep in
	// EpochStats.Duration; the hsom.train row above is the call without it.
	hooked := tr.begin("hsom.train_epoch_hook", noParent)
	encCfg.Epoch = func(level, _ string, s som.EpochStats) {
		now := time.Now()
		tr.record("hsom."+level+"_epoch", hooked, "", now.Add(-s.Duration), now)
	}
	_, err = hsom.Train(encCfg, perCategory)
	tr.end(hooked)
	if err != nil {
		return nil, err
	}

	// Spans are looked up by this composition's IDs: earlier pairs
	// recorded spans with the same names.
	ix := indexSpans(tr.snapshot())
	secs := func(id int) float64 { return ix.spans[id].dur().Seconds() }
	var encBusy, evoBusy, thrBusy float64
	for _, c := range ix.children[phase] {
		encBusy += ix.busy(c, "hsom.encode_train").Seconds()
		evoBusy += ix.busy(c, "lgp.evolve").Seconds()
		thrBusy += ix.busy(c, "lgp.threshold").Seconds()
	}
	row := map[string]float64{
		"total":                 secs(root),
		"featsel.select_s":      secs(sp),
		"prep_self_s":           ix.selfTime(root).Seconds(),
		"hsom.train_s":          secs(hs),
		"hsom.hooked_s":         secs(hooked),
		"hsom.char_epochs_s":    ix.busy(hooked, "hsom.char_epoch").Seconds(),
		"hsom.word_epochs_s":    ix.busy(hooked, "hsom.word_epoch").Seconds(),
		"hsom.hooked_self_s":    ix.selfTime(hooked).Seconds(),
		"core.category_phase_s": secs(phase),
		"category_busy_s":       ix.busy(phase, "core.category").Seconds(),
		"hsom.encode_train_s":   encBusy,
		"lgp.evolve_s":          evoBusy,
		"lgp.threshold_s":       thrBusy,
		"lgp.tournaments":       float64(tournaments),
		"runtime.alloc_mb":      float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		"runtime.gc_cycles":     float64(ms1.NumGC - ms0.NumGC),
	}
	return row, nil
}

// composeCategory is one category's share of the composition: encode
// the training documents, evolve each restart, derive the Equation 6
// threshold from the winner's training outputs.
func composeCategory(tr *tracer, phase int, cat string, train []corpus.Document, keep map[string]bool,
	enc *hsom.Encoder, gp lgp.Config, seed int64, restarts int) (composedCategory, int, error) {
	cs := tr.begin("core.category", phase)
	defer tr.end(cs)

	es := tr.begin("hsom.encode_train", cs)
	examples := make([]lgp.Example, 0, len(train))
	for i := range train {
		inputs, err := encodeMembers(enc, cat, keep, train[i].Words)
		if err != nil {
			tr.end(es)
			return composedCategory{}, 0, err
		}
		label := -1.0
		if train[i].HasCategory(cat) {
			label = 1.0
		}
		examples = append(examples, lgp.Example{Inputs: inputs, Label: label})
	}
	tr.end(es)

	var best *lgp.Result
	tournaments := 0
	for rs := 0; rs < restarts; rs++ {
		cfg := gp
		cfg.Seed = seed + int64(rs)*7919 + int64(len(cat))*104729 // core.Train's per-restart seed
		ev := tr.begin("lgp.evolve", cs)
		trainer, err := lgp.NewTrainer(cfg, examples)
		if err != nil {
			tr.end(ev)
			return composedCategory{}, 0, err
		}
		res := trainer.Run()
		tr.end(ev)
		tournaments += len(res.BestHistory)
		if best == nil || res.Fitness < best.Fitness {
			best = res
		}
	}

	th := tr.begin("lgp.threshold", cs)
	machine := lgp.NewMachine(gp.NumRegisters)
	var inOuts, outOuts []float64
	for i := range examples {
		out := runProgram(machine, gp.Recurrent, best.Best, examples[i].Inputs)
		if examples[i].Label > 0 {
			inOuts = append(inOuts, out)
		} else {
			outOuts = append(outOuts, out)
		}
	}
	threshold := median([]float64{median(inOuts), median(outOuts)})
	tr.end(th)
	return composedCategory{
		rule:      best.Best.Disassemble(gp.NumRegisters, gp.NumInputs),
		fitness:   best.Fitness,
		threshold: threshold,
	}, tournaments, nil
}

// encodeMembers is the model's view of a document for one category:
// keep-set filter, hierarchical SOM codes, member words only, as
// (normalised unit index, membership) pairs.
func encodeMembers(enc *hsom.Encoder, cat string, keep map[string]bool, words []string) ([][]float64, error) {
	filtered := make([]string, 0, len(words))
	for _, w := range words {
		if keep[w] {
			filtered = append(filtered, w)
		}
	}
	codes, err := enc.Encode(cat, filtered)
	if err != nil {
		return nil, err
	}
	inputs := make([][]float64, 0, len(codes))
	for _, code := range codes {
		if code.Member {
			inputs = append(inputs, []float64{code.NormIndex, code.Membership})
		}
	}
	return inputs, nil
}

func runProgram(m *lgp.Machine, recurrent bool, p *lgp.Program, inputs [][]float64) float64 {
	if recurrent {
		return m.RunSequence(p, inputs)
	}
	return m.RunSequenceNonRecurrent(p, inputs)
}

// ensureCoverage widens keep with the in-class documents' most frequent
// words (ties alphabetical) until every document keeps at least one
// word — core.Train's rule for over-aggressive feature budgets, which
// core does not export. The parity check on the composed programs
// fails if the two ever drift apart.
func ensureCoverage(keep map[string]bool, inClass []corpus.Document) map[string]bool {
	covered := func(k map[string]bool) bool {
		for i := range inClass {
			hit := len(inClass[i].Words) == 0
			for _, w := range inClass[i].Words {
				if k[w] {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		return true
	}
	if covered(keep) {
		return keep
	}
	out := make(map[string]bool, len(keep))
	for w := range keep {
		out[w] = true
	}
	freq := make(map[string]int)
	for i := range inClass {
		for _, w := range inClass[i].Words {
			freq[w]++
		}
	}
	ranked := sortedKeys(freq)
	sort.SliceStable(ranked, func(i, j int) bool { return freq[ranked[i]] > freq[ranked[j]] })
	for _, w := range ranked {
		if out[w] {
			continue
		}
		out[w] = true
		if covered(out) {
			break
		}
	}
	return out
}

// trainTable renders the training layer table from the per-pair rows
// (medians over pairs) and sets the training per-layer metrics.
func (r *runner) trainTable(rows []map[string]float64, untraced float64) {
	med := func(k string) float64 {
		xs := make([]float64, len(rows))
		for i, row := range rows {
			xs[i] = row[k]
		}
		return median(xs)
	}
	for _, k := range []string{"featsel.select_s", "hsom.train_s", "hsom.char_epochs_s", "hsom.word_epochs_s",
		"hsom.encode_train_s", "lgp.evolve_s", "lgp.tournaments", "lgp.threshold_s", "core.category_phase_s",
		"runtime.alloc_mb", "runtime.gc_cycles"} {
		r.set(k, med(k))
	}
	r.set("lgp.tournament_us", 1e6*med("lgp.evolve_s")/med("lgp.tournaments"))
	t := &layerTable{
		Title:     fmt.Sprintf("%s: training layers (traced composition of core.Train, median of %d pairs, seconds)", r.spec.Name, len(rows)),
		TotalName: "train (traced wall)",
		Total:     med("total"),
		Traced:    true,
		Unit:      "s",
		Tolerance: trainTolerance,
		Overhead:  med("total")/untraced - 1,
		Rows: []tableRow{
			{Name: "featsel.select", Value: med("featsel.select_s"), Unit: "s", Sum: true},
			{Name: "hsom.train", Value: med("hsom.train_s"), Unit: "s", Sum: true},
			{Name: "with the Epoch hook", Value: med("hsom.hooked_s"), Unit: "s", Depth: 1, Note: "separate call; its rows include the observer's quantisation sweep"},
			{Name: "char-map epochs", Value: med("hsom.char_epochs_s"), Unit: "s", Depth: 2},
			{Name: "word-map epochs", Value: med("hsom.word_epochs_s"), Unit: "s", Depth: 2},
			{Name: "(self: fanout, BMU grouping, Gaussians)", Value: med("hsom.hooked_self_s"), Unit: "s", Depth: 2},
			{Name: "core.category_phase", Value: med("core.category_phase_s"), Unit: "s", Sum: true, Note: "wall; categories in parallel"},
			{Name: "categories busy", Value: med("category_busy_s"), Unit: "s", Depth: 1, Note: "summed over goroutines"},
			{Name: "hsom.encode_train", Value: med("hsom.encode_train_s"), Unit: "s", Depth: 2},
			{Name: "lgp.evolve", Value: med("lgp.evolve_s"), Unit: "s", Depth: 2, Note: fmt.Sprintf("%.0f tournaments", med("lgp.tournaments"))},
			{Name: "lgp.threshold", Value: med("lgp.threshold_s"), Unit: "s", Depth: 2},
			{Name: "(self: keep-sets, coverage, filtering)", Value: med("prep_self_s"), Unit: "s"},
		},
	}
	r.set("train.rows_ratio", t.rowsRatio())
	r.set("train.trace_overhead_ratio", t.Overhead)
	r.tables = append(r.tables, t)
}

// trainTolerance bounds the training time no phase row accounts for.
const trainTolerance = 0.05
