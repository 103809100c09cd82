package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/serve"
	"temporaldoc/internal/textproc"
)

// serverState is what the server reports about itself at one instant:
// /v1/statz, the telemetry counters of /v1/modelz, and the runtime
// memory statistics expvar publishes on -telemetry-addr.
type serverState struct {
	statz    serve.StatzResponse
	counters map[string]int64
	mem      memStats
}

type memStats struct {
	TotalAlloc uint64 `json:"TotalAlloc"`
	NumGC      uint32 `json:"NumGC"`
}

func fetchServerState(srv *server) (serverState, error) {
	var st serverState
	if err := getJSON(srv.base+"/v1/statz", &st.statz); err != nil {
		return st, err
	}
	var modelz struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := getJSON(srv.base+"/v1/modelz", &modelz); err != nil {
		return st, err
	}
	st.counters = modelz.Metrics.Counters
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := getJSON(srv.telemetry+"/debug/vars", &vars); err != nil {
		return st, err
	}
	st.mem = vars.Memstats
	return st, nil
}

// stageWindow is the mean, in milliseconds, of the observations a
// /v1/statz distribution gained between two snapshots, and their count.
// Statz renders each distribution's mean over its whole life, so the
// window's sum is the difference of mean × count.
func stageWindow(before, after serve.StageStatz) (float64, int64) {
	n := after.Count - before.Count
	if n <= 0 {
		return 0, 0
	}
	sumUS := after.MeanUS*float64(after.Count) - before.MeanUS*float64(before.Count)
	return sumUS / float64(n) / 1e3, n
}

// hitRatio is hits / (hits + misses) of a telemetry counter pair
// (<name>.hits, <name>.misses) over a window; 0 when nothing was looked
// up.
func hitRatio(before, after map[string]int64, name string) float64 {
	hits := after[name+".hits"] - before[name+".hits"]
	misses := after[name+".misses"] - before[name+".misses"]
	if hits+misses <= 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// servedDoc is one distinct document of the traced half and the
// categories the server gave it.
type servedDoc struct {
	doc  *requestDoc
	cats []string
}

func ms(d time.Duration) float64 { return 1e3 * d.Seconds() }

// maxRequestSpans caps the traced requests whose spans are kept; the
// metrics use every traced request.
const maxRequestSpans = 10000

// tracedWindow splits the run's seconds into an untraced half and a
// traced half. Between them the loop drains, so the server's window
// deltas cover exactly the traced requests. It returns the distinct
// documents served in the traced half, for the replay.
func (r *runner) tracedWindow(cl *client, seq *sequence, srv *server, conns int) ([]servedDoc, error) {
	half := r.window / 2
	plain := make([][]float64, conns)
	cl.drive(seq, driveOpts{conns: conns, deadline: time.Now().Add(half)}, func(g int, p *reply) {
		err := p.failure()
		r.led.check(err)
		if err == nil {
			plain[g] = append(plain[g], ms(p.latency()))
		}
	})
	s0, err := fetchServerState(srv)
	if err != nil {
		return nil, err
	}
	// The traced half keeps every successful reply without its body,
	// plus the body of each document's first reply on the connection;
	// a repeat must be answered with the same bytes.
	traced := make([][]reply, conns)
	firstBody := make([]map[string][]byte, conns)
	for g := range firstBody {
		firstBody[g] = make(map[string][]byte)
	}
	cl.drive(seq, driveOpts{conns: conns, deadline: time.Now().Add(half), traced: true, keepBody: true}, func(g int, p *reply) {
		err := p.failure()
		r.led.check(err)
		if err != nil {
			return
		}
		if first, ok := firstBody[g][p.doc.id]; !ok {
			firstBody[g][p.doc.id] = p.body
		} else {
			r.led.gate(fmt.Sprintf("repeat of %s is answered with the same bytes", p.doc.id), bytes.Equal(first, p.body))
		}
		p.body = nil
		traced[g] = append(traced[g], *p)
	})
	s1, err := fetchServerState(srv)
	if err != nil {
		return nil, err
	}

	var plainMS []float64
	for _, l := range plain {
		plainMS = append(plainMS, l...)
	}
	var lat, ttfb []float64
	var reused, n int
	for _, rs := range traced {
		for i := range rs {
			p, t := &rs[i], rs[i].trace
			if n < maxRequestSpans {
				root := r.tr.record("client.request", noParent, p.reqID, p.start, p.end)
				r.tr.record("client.conn", root, p.reqID, t.getConn, t.gotConn)
				r.tr.record("client.write", root, p.reqID, t.gotConn, t.wrote)
				r.tr.record("client.ttfb", root, p.reqID, t.wrote, t.firstByte)
				r.tr.record("client.read", root, p.reqID, t.firstByte, p.end)
			}
			n++
			lat = append(lat, ms(p.latency()))
			ttfb = append(ttfb, ms(t.firstByte.Sub(t.wrote)))
			if t.reused {
				reused++
			}
		}
	}
	// The distinct documents of the traced half, in pool order, with
	// the categories they were served.
	var served []servedDoc
	for i := range seq.docs {
		doc := &seq.docs[i]
		var body []byte
		for g := range firstBody {
			b, ok := firstBody[g][doc.id]
			if !ok {
				continue
			}
			if body != nil {
				r.led.gate(fmt.Sprintf("both connections are answered the same bytes for %s", doc.id), bytes.Equal(body, b))
			}
			body = b
		}
		if body == nil {
			continue
		}
		cats, err := decodeCategories(body, cl.sha)
		if err != nil {
			r.led.check(fmt.Errorf("reply for %s: %w", doc.id, err))
			continue
		}
		served = append(served, servedDoc{doc: doc, cats: cats})
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, fmt.Errorf("traced half: %w", err)
	}

	handler, handled := stageWindow(s0.statz.Latency, s1.statz.Latency)
	r.led.gate(fmt.Sprintf("statz counts %d handler observations for %d traced requests", handled, len(lat)), handled == int64(len(lat)))
	stage := func(name string) float64 {
		v, _ := stageWindow(s0.statz.Stages[name], s1.statz.Stages[name])
		return v
	}
	decode, queue, classify, write := stage("decode"), stage("queue"), stage("classify"), stage("write")
	clientMean := mean(lat)
	gap := clientMean - handler
	docs := s1.statz.DocsClassified - s0.statz.DocsClassified

	r.set("client.latency_p99_ms", p99)
	r.set("client.ttfb_mean_ms", mean(ttfb))
	r.set("client.conn_reused_ratio", float64(reused)/float64(len(lat)))
	r.set("transport.gap_mean_ms", gap)
	r.set("serve.handler_mean_ms", handler)
	r.set("serve.decode_mean_ms", decode)
	r.set("serve.queue_mean_ms", queue)
	r.set("serve.classify_mean_ms", classify)
	r.set("serve.write_mean_ms", write)
	r.set("core.encode_cache_hit_ratio", hitRatio(s0.counters, s1.counters, "core.encode.cache"))
	r.set("hsom.wordvec_cache_hit_ratio", hitRatio(s0.counters, s1.counters, "hsom.wordvec.cache"))
	r.set("core.machine_pool_hit_ratio", hitRatio(s0.counters, s1.counters, "core.machine.pool"))
	r.set("server.alloc_kb_per_doc", float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc)/1024/float64(docs))
	r.set("server.gc_cycles", float64(s1.mem.NumGC-s0.mem.NumGC))

	t := &layerTable{
		Title: fmt.Sprintf("%s: serving layers (traced half: %d requests, %d distinct documents; per-request means, ms)",
			r.spec.Name, len(lat), len(served)),
		TotalName: "client latency",
		Total:     clientMean,
		Unit:      "ms",
		Tolerance: serveTolerance,
		Traced:    true,
		Overhead:  clientMean/mean(plainMS) - 1,
		Rows: []tableRow{
			{Name: "transport.gap", Value: gap, Unit: "ms", Sum: true, Note: "client mean - handler mean"},
			{Name: "client.ttfb", Value: mean(ttfb), Unit: "ms", Depth: 1, Note: "request written -> first byte; spans the handler"},
			{Name: "serve.handler", Value: handler, Unit: "ms", Note: "/v1/statz window"},
			{Name: "serve.decode", Value: decode, Unit: "ms", Depth: 1, Sum: true, Note: "JSON parse + tokenise"},
			{Name: "serve.queue", Value: queue, Unit: "ms", Depth: 1, Sum: true},
			{Name: "serve.classify", Value: classify, Unit: "ms", Depth: 1, Sum: true, Note: "core.Model.ClassifyDoc"},
			{Name: "serve.write", Value: write, Unit: "ms", Depth: 1, Sum: true},
			{Name: "(handler self)", Value: handler - decode - queue - classify - write, Unit: "ms", Depth: 1},
		},
	}
	r.set("serve.rows_ratio", t.rowsRatio())
	r.set("serve.trace_overhead_ratio", t.Overhead)
	r.tables = append(r.tables, t)
	return served, nil
}

// replayCap bounds the documents the replay re-runs in process, and
// replayPasses is how many timed passes it makes over them.
const (
	replayCap    = 128
	replayPasses = 7
)

// replayTolerance bounds the share of an in-process ClassifyDoc that
// neither encoding nor the RLGP run accounts for.
const replayTolerance = 0.15

// replay re-runs the traced half's documents in process through each
// layer's public entry point, one layer at a time, and checks that the
// layers reproduce the served categories.
func (r *runner) replay(tm *trainedModel, served []servedDoc) error {
	if len(served) > replayCap {
		served = served[:replayCap]
	}
	n := float64(len(served))
	load, err := timeBatched(func() error {
		_, _, err := core.LoadFile(tm.snapshot)
		return err
	})
	r.led.check(err)
	if err != nil {
		return err
	}
	r.set("core.load_s", load.Seconds())

	m, info, err := core.LoadFile(tm.snapshot)
	if err != nil {
		return err
	}
	r.led.gate("the loaded snapshot has the served hash", info.SHA256 == tm.sha256)
	cats := m.Categories()
	keeps := make([]map[string]bool, len(cats))
	for c, cat := range cats {
		keeps[c] = m.Keep(cat)
	}

	pre := textproc.NewPreprocessor(textproc.Options{})
	words := make([][]string, len(served))
	proc, _ := timeBatched(func() error {
		for i := range served {
			words[i] = pre.Process(served[i].doc.text)
		}
		return nil
	})

	// One untimed pass fills the word-vector cache, as the server's
	// earlier requests did. The timed passes then interleave the layers
	// document by document, so each is timed under the same host
	// conditions: encoding (keep-filter + hsom.Encode), the RLGP run, and
	// ClassifyDoc, whose encode cache stays cold because every pass uses
	// its own document IDs (the cache is keyed by ID and content).
	enc := m.Encoder()
	inputs := make([][][]float64, len(cats)) // the current document's, per category
	encodeDoc := func(i int) error {
		for c, cat := range cats {
			in, err := encodeMembers(enc, cat, keeps[c], words[i])
			if err != nil {
				return err
			}
			inputs[c] = in
		}
		return nil
	}
	machine := lgp.NewMachine(tm.gp.NumRegisters)
	scores := make([][]float64, len(served))
	for i := range scores {
		scores[i] = make([]float64, len(cats))
	}
	runDoc := func(i int) {
		for c, cat := range cats {
			scores[i][c] = runProgram(machine, tm.gp.Recurrent, m.CategoryModelFor(cat).Program, inputs[c])
		}
	}
	buf := make([]core.Prediction, 0, len(cats))
	classifyDoc := func(i, pass int) {
		doc := corpus.Document{ID: served[i].doc.id + "#" + strconv.Itoa(pass), Words: words[i]}
		preds, err := m.ClassifyDoc(&doc, buf[:0])
		if pass > 0 {
			return
		}
		same := err == nil && len(preds) == len(cats)
		for c := 0; same && c < len(cats); c++ {
			same = math.Float64bits(preds[c].Score) == math.Float64bits(scores[i][c])
		}
		r.led.gate(fmt.Sprintf("ClassifyDoc scores of %s equal the layer-by-layer replay", served[i].doc.id), same)
	}
	for i := range served {
		if err := encodeDoc(i); err != nil {
			return err
		}
	}
	var encodeT, runT, classifyT []float64
	for pass := 0; pass < replayPasses; pass++ {
		runtime.GC()
		var encD, runD, classifyD time.Duration
		for i := range served {
			t0 := time.Now()
			if err := encodeDoc(i); err != nil {
				return err
			}
			t1 := time.Now()
			runDoc(i)
			t2 := time.Now()
			classifyDoc(i, pass)
			t3 := time.Now()
			encD, runD, classifyD = encD+t1.Sub(t0), runD+t2.Sub(t1), classifyD+t3.Sub(t2)
		}
		encodeT = append(encodeT, encD.Seconds())
		runT = append(runT, runD.Seconds())
		classifyT = append(classifyT, classifyD.Seconds())
	}
	for i := range served {
		var got []string
		for c, cat := range cats {
			if scores[i][c] > m.CategoryModelFor(cat).Threshold {
				got = append(got, cat)
			}
		}
		r.led.gate(fmt.Sprintf("replayed categories %v of %s equal the served %v", got, served[i].doc.id, served[i].cats),
			slices.Equal(got, served[i].cats))
	}
	encode := time.Duration(median(encodeT) * float64(time.Second))
	run := time.Duration(median(runT) * float64(time.Second))
	classify := time.Duration(median(classifyT) * float64(time.Second))

	perDoc := func(d time.Duration) float64 { return 1e6 * d.Seconds() / n }
	r.set("textproc.process_us_per_doc", perDoc(proc))
	r.set("hsom.encode_us_per_doc", perDoc(encode))
	r.set("lgp.run_us_per_doc", perDoc(run))
	r.set("core.classify_doc_us", perDoc(classify))
	t := &layerTable{
		Title:     fmt.Sprintf("%s: in-process replay of %d served documents (µs per document)", r.spec.Name, len(served)),
		TotalName: "core.ClassifyDoc (cold encode cache)",
		Total:     perDoc(classify),
		Unit:      "us",
		Tolerance: replayTolerance,
		Rows: []tableRow{
			{Name: "hsom.encode (keep-filter + Encode, all categories)", Value: perDoc(encode), Unit: "us", Sum: true},
			{Name: "lgp.run (RunSequence, all categories)", Value: perDoc(run), Unit: "us", Sum: true},
			{Name: "textproc.process (inside serve.decode)", Value: perDoc(proc), Unit: "us", Note: "not part of ClassifyDoc"},
		},
	}
	r.tables = append(r.tables, t)
	return nil
}
