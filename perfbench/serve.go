package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/serve"
	"temporaldoc/internal/textproc"
)

// serverStarts is how many times an untraced serve run starts the
// server to time its set-up; setup_s is the median.
const serverStarts = 11

// serveTolerance bounds the client latency that neither the transport
// gap nor a server stage accounts for.
const serveTolerance = 0.10

// serveModel serves the trained snapshot with `tdc serve` and drives
// the workload's requests through it: the measured window (untraced),
// or the untraced and traced halves plus the in-process replay
// (traced), then the evaluation pass when the workload has one.
func (r *runner) serveModel(in *trainingInput, tm *trainedModel) error {
	pool, err := r.poolDocs(in)
	if err != nil {
		return err
	}
	seq := &sequence{docs: pool}
	conns := r.spec.Rate.connections()

	var srv *server
	if r.traced {
		if srv, _, err = r.startServer(tm.snapshot, true); err != nil {
			return err
		}
	} else {
		setups := make([]float64, serverStarts)
		for i := range setups {
			s, setup, err := r.startServer(tm.snapshot, false)
			r.led.check(err)
			if err != nil {
				return err
			}
			setups[i] = setup.Seconds()
			if i < len(setups)-1 {
				r.led.check(s.stop())
			} else {
				srv = s
			}
		}
		r.set("setup_s", median(setups))
		fmt.Fprintf(r.out, "server set-up (exec to first healthz 200): median %.1f ms of %d starts\n", 1e3*median(setups), len(setups))
	}

	cl := newClient(srv.base, tm.sha256, conns)
	defer cl.close()
	cl.drive(seq, driveOpts{conns: conns, n: int64(r.spec.Rate.WarmupRequests)}, r.checkReply)
	runtime.GC()
	var served []servedDoc
	if r.traced {
		if served, err = r.tracedWindow(cl, seq, srv, conns); err != nil {
			return err
		}
	} else if err := r.measuredWindow(cl, seq, srv, conns); err != nil {
		return err
	}
	if r.spec.Data.Pool == "heldout" {
		if err := r.evalPass(cl, tm, conns); err != nil {
			return err
		}
	}
	if !r.traced {
		rss, err := readPeakRSS(strconv.Itoa(srv.pid))
		r.led.check(err)
		r.set("peak_rss_mb", float64(rss)/(1<<20))
	}
	r.led.check(srv.stop())
	if r.traced {
		return r.replay(tm, served)
	}
	return nil
}

// poolDocs builds the request documents: the training corpus's test
// split, or a held-out corpus generated from the run seed, shuffled by
// it; then, for a hot set, that many of them.
func (r *runner) poolDocs(in *trainingInput) ([]requestDoc, error) {
	d := r.spec.Data
	c := &corpus.Corpus{Test: in.corpus.Test}
	if d.Pool == "heldout" {
		cfg := reuters.DefaultGenConfig()
		cfg.Scale, cfg.Seed = heldoutScale, d.PoolSeedOffset+r.seed
		if cfg.Seed == d.TrainSeed {
			return nil, fmt.Errorf("run seed %d makes the held-out pool seed equal the training seed", r.seed)
		}
		var err error
		if c, err = reuters.GenerateCorpus(cfg); err != nil {
			return nil, err
		}
	}
	docs, err := requestDocs(c, r.seed)
	if err != nil {
		return nil, err
	}
	// The generator emits a held-out corpus category by category; a
	// newswire stream interleaves topics, and a per-sub-window metric
	// must not depend on which category's block a sub-window fell on.
	// The hot set is the first HotSet documents of the shuffled pool.
	if d.Pool == "heldout" {
		rng := rand.New(rand.NewSource(r.seed))
		rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	}
	if d.HotSet > 0 {
		if d.HotSet > len(docs) {
			return nil, fmt.Errorf("hot set of %d from a pool of %d", d.HotSet, len(docs))
		}
		docs = docs[:d.HotSet]
	}
	fmt.Fprintf(r.out, "requests: %d distinct documents, %s loop, %d connections\n",
		len(docs), r.spec.Rate.Loop, r.spec.Rate.connections())
	return docs, nil
}

// checkReply counts a reply in the ledger; it is the keep function of
// phases that measure nothing.
func (r *runner) checkReply(_ int, p *reply) { r.led.check(p.failure()) }

// measuredWindow is the untraced window: a closed loop for the run's
// seconds, split into sub-windows. Each serving metric is computed per
// sub-window and reported as the median over them, so a burst of
// hypervisor steal moves a few sub-windows, not the run's value. A
// sub-window with too few replies for its p90 (a stall) is left out;
// the run fails only when that leaves fewer than half of them.
func (r *runner) measuredWindow(cl *client, seq *sequence, srv *server, conns int) error {
	k := max(1, int(r.window/subWindow))
	start := time.Now()
	bounds := make([]time.Time, k+1)
	for i := range bounds {
		bounds[i] = start.Add(time.Duration(i) * r.window / time.Duration(k))
	}
	// The server's CPU time is sampled at every sub-window boundary.
	cpuAt := make([]time.Duration, k+1)
	cpuErr := make([]error, k+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, b := range bounds {
			time.Sleep(time.Until(b))
			cpuAt[i], cpuErr[i] = readProcCPU(srv.pid)
		}
	}()
	// Each connection keeps the completion time and latency of its
	// successful replies; a reply belongs to the sub-window it completed
	// in, and replies after the last boundary are outside the window.
	type sample struct {
		end time.Time
		ms  float64
	}
	perConn := make([][]sample, conns)
	cl.drive(seq, driveOpts{conns: conns, deadline: bounds[k]}, func(g int, p *reply) {
		err := p.failure()
		r.led.check(err)
		if err == nil {
			perConn[g] = append(perConn[g], sample{p.end, ms(p.latency())})
		}
	})
	wg.Wait()
	for _, err := range cpuErr {
		if err != nil {
			return fmt.Errorf("reading the server's CPU time: %w", err)
		}
	}
	lat := make([][]float64, k)
	replies := 0
	for _, samples := range perConn {
		replies += len(samples)
		for _, sm := range samples {
			w := sort.Search(len(bounds), func(j int) bool { return bounds[j].After(sm.end) }) - 1
			if w >= 0 && w < k {
				lat[w] = append(lat[w], sm.ms)
			}
		}
	}
	sw, err := summarise(lat, bounds, cpuAt)
	if err != nil {
		return err
	}
	r.set("docs_per_s", median(sw.perSec))
	r.set("latency_p50_ms", median(sw.p50))
	r.set("latency_p90_ms", median(sw.p90))
	r.set("server_cpu_us_per_doc", median(sw.cpuPerDoc))
	fmt.Fprintf(r.out, "window: %d replies in %d sub-windows of %.2f s, %d left out for too few replies\n  docs/s       %s\n  p50 ms       %s\n  p90 ms       %s\n  cpu us/doc   %s\n",
		replies, k, r.window.Seconds()/float64(k), len(sw.short), fmtList(sw.perSec), fmtList(sw.p50), fmtList(sw.p90), fmtList(sw.cpuPerDoc))
	for _, s := range sw.short {
		fmt.Fprintln(r.out, "  left out:", s)
	}
	return nil
}

// subWindows holds each serving metric per kept sub-window, and why
// the others were left out.
type subWindows struct {
	perSec, p50, p90, cpuPerDoc []float64
	short                       []string
}

// summarise computes the serving metrics of each sub-window from its
// latencies (ms), its bounds and the server's CPU time at each bound.
// A sub-window with too few replies for its p90 is left out; it fails
// when more than half of the sub-windows are.
func summarise(lat [][]float64, bounds []time.Time, cpuAt []time.Duration) (subWindows, error) {
	var sw subWindows
	for w := range lat {
		n := float64(len(lat[w]))
		p50, err50 := percentile(lat[w], 0.50)
		p90, err90 := percentile(lat[w], 0.90)
		if err := errors.Join(err50, err90); err != nil {
			sw.short = append(sw.short, fmt.Sprintf("sub-window %d: %v", w, err))
			continue
		}
		sw.perSec = append(sw.perSec, n/bounds[w+1].Sub(bounds[w]).Seconds())
		sw.p50, sw.p90 = append(sw.p50, p50), append(sw.p90, p90)
		sw.cpuPerDoc = append(sw.cpuPerDoc, 1e6*(cpuAt[w+1]-cpuAt[w]).Seconds()/n)
	}
	if 2*len(sw.short) > len(lat) {
		return sw, fmt.Errorf("%d of %d sub-windows have too few replies: %s", len(sw.short), len(lat), strings.Join(sw.short, "; "))
	}
	return sw, nil
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return fmt.Sprint(s)
}

// evalPass sends the workload's fixed labelled documents through the
// server once, untimed, after the window. Every reply must carry the
// snapshot's hash and the categories the in-memory model gives the
// same text; the served categories score macro_f1.
func (r *runner) evalPass(cl *client, tm *trainedModel, conns int) error {
	cfg := reuters.DefaultGenConfig()
	cfg.Scale, cfg.Seed = evalScale, evalSeed
	c, err := reuters.GenerateCorpus(cfg)
	if err != nil {
		return err
	}
	docs, err := requestDocs(c, evalSeed)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var replies []reply
	cl.drive(&sequence{docs: docs}, driveOpts{conns: conns, n: int64(len(docs)), keepBody: true}, func(_ int, p *reply) {
		mu.Lock()
		replies = append(replies, *p)
		mu.Unlock()
	})
	pre := textproc.NewPreprocessor(textproc.Options{})
	cats := tm.model.Categories()
	set := metrics.NewSet()
	for i := range replies {
		p := &replies[i]
		if err := p.failure(); err != nil {
			r.led.check(err)
			continue
		}
		got, err := decodeCategories(p.body, tm.sha256)
		if err != nil {
			r.led.check(fmt.Errorf("evaluation reply for %s: %w", p.doc.id, err))
			continue
		}
		want, err := tm.model.Classify(&corpus.Document{ID: p.doc.id, Words: pre.Process(p.doc.text)})
		r.led.gate(fmt.Sprintf("served categories %v for %s equal the offline %v", got, p.doc.id, want),
			err == nil && slices.Equal(got, want))
		for _, cat := range cats {
			set.Observe(cat, slices.Contains(p.doc.labels, cat), slices.Contains(got, cat))
		}
	}
	r.set("macro_f1", set.MacroF1())
	fmt.Fprintf(r.out, "evaluation pass: %d labelled documents, served macro-F1 %.4f\n", len(replies), set.MacroF1())
	return nil
}

// decodeCategories reads a single-document classify reply and checks
// that the snapshot hash it names is sha.
func decodeCategories(body []byte, sha string) ([]string, error) {
	var resp serve.ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if resp.ModelHash != sha {
		return nil, fmt.Errorf("model_hash %s, want the snapshot's %s", resp.ModelHash, sha)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("%d results for one document", len(resp.Results))
	}
	return resp.Results[0].Categories, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(url string, v any) error {
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
