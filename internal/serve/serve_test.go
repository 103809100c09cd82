package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/telemetry"
	"temporaldoc/internal/textproc"
)

// --- shared fixture: one tiny corpus, two distinct trained snapshots ---

type fixture struct {
	corpus *corpus.Corpus
	// modelA/B are two models trained with different seeds, so their
	// predictions (and snapshot hashes) differ — the raw material of
	// every reload test.
	modelA, modelB *core.Model
	pathA, pathB   string
	hashA, hashB   string
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func testConfig(seed int64) core.Config {
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 20
	gp.Tournaments = 300
	gp.MaxPages = 4
	gp.MaxPageSize = 4
	gp.DSS = &lgp.DSSConfig{SubsetSize: 20, Interval: 25}
	return core.Config{
		FeatureMethod: featsel.DF,
		FeatureConfig: featsel.Config{GlobalN: 60, PerCategoryN: 25},
		Encoder: hsom.Config{
			CharWidth: 5, CharHeight: 5,
			WordWidth: 4, WordHeight: 4,
			CharEpochs: 2, WordEpochs: 3,
			BMUFanout: 3,
			Seed:      seed + 1,
		},
		GP:       gp,
		Restarts: 1,
		Seed:     seed,
	}
}

func buildFixture() (*fixture, error) {
	gen := reuters.DefaultGenConfig()
	gen.Scale = 0.008
	gen.Seed = 11
	c, err := reuters.GenerateCorpus(gen)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "serve-fixture")
	if err != nil {
		return nil, err
	}
	f := &fixture{corpus: c}
	train := func(seed int64, path string) (*core.Model, string, error) {
		m, err := core.Train(testConfig(seed), c)
		if err != nil {
			return nil, "", err
		}
		out, err := os.Create(path)
		if err != nil {
			return nil, "", err
		}
		if err := m.Save(out); err != nil {
			out.Close()
			return nil, "", err
		}
		if err := out.Close(); err != nil {
			return nil, "", err
		}
		// Reload from disk so the in-memory reference model is exactly
		// the persisted one (training caches differ from loaded state).
		lm, info, err := core.LoadFile(path)
		if err != nil {
			return nil, "", err
		}
		return lm, info.SHA256, nil
	}
	f.pathA = filepath.Join(dir, "a.json")
	f.pathB = filepath.Join(dir, "b.json")
	if f.modelA, f.hashA, err = train(5, f.pathA); err != nil {
		return nil, err
	}
	if f.modelB, f.hashB, err = train(97, f.pathB); err != nil {
		return nil, err
	}
	if f.hashA == f.hashB {
		return nil, fmt.Errorf("fixture models have identical snapshots")
	}
	return f, nil
}

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

// docText renders a corpus document back to raw text for the API.
func docText(d *corpus.Document) string { return strings.Join(d.Words, " ") }

// newTestServer builds a Server over the given snapshot path with
// test-friendly limits; callers may tweak cfg via mod.
func newTestServer(t *testing.T, path string, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		ModelPath:      path,
		Workers:        2,
		QueueDepth:     8,
		MaxBatch:       16,
		MaxBodyBytes:   1 << 20,
		RequestTimeout: 30 * time.Second,
		Metrics:        telemetry.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func decodeClassify(t *testing.T, b []byte) ClassifyResponse {
	t.Helper()
	var cr ClassifyResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatalf("response not valid ClassifyResponse JSON: %v\n%s", err, b)
	}
	return cr
}

// offlineCategories returns the in-class categories the model assigns
// offline — the ground truth every server response is compared with.
func offlineCategories(t *testing.T, m *core.Model, d *corpus.Document) []string {
	t.Helper()
	preds, err := m.ClassifyDoc(d, nil)
	if err != nil {
		t.Fatalf("ClassifyDoc: %v", err)
	}
	out := []string{}
	for _, p := range preds {
		if p.InClass {
			out = append(out, p.Category)
		}
	}
	return out
}

func TestServeSingleClassify(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	doc := &f.corpus.Test[0]
	resp, b := postJSON(t, hs.URL+"/v1/classify",
		fmt.Sprintf(`{"id":%q,"text":%q,"scores":true}`, doc.ID, docText(doc)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	cr := decodeClassify(t, b)
	if cr.ModelHash != f.hashA {
		t.Errorf("model_hash %q, want %q", cr.ModelHash, f.hashA)
	}
	if len(cr.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(cr.Results))
	}
	res := cr.Results[0]
	if res.ID != doc.ID {
		t.Errorf("result ID %q, want %q", res.ID, doc.ID)
	}
	if len(res.Predictions) != len(f.modelA.Categories()) {
		t.Errorf("got %d predictions, want one per category (%d)",
			len(res.Predictions), len(f.modelA.Categories()))
	}
	want := offlineCategories(t, f.modelA, doc)
	if fmt.Sprint(res.Categories) != fmt.Sprint(want) {
		t.Errorf("categories %v, want offline %v", res.Categories, want)
	}
}

func TestServeBatchClassify(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	n := 5
	var docs []string
	for i := 0; i < n; i++ {
		d := &f.corpus.Test[i%len(f.corpus.Test)]
		docs = append(docs, fmt.Sprintf(`{"id":%q,"text":%q}`, d.ID, docText(d)))
	}
	resp, b := postJSON(t, hs.URL+"/v1/classify",
		`{"documents":[`+strings.Join(docs, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	cr := decodeClassify(t, b)
	if len(cr.Results) != n {
		t.Fatalf("got %d results, want %d", len(cr.Results), n)
	}
	for i, res := range cr.Results {
		d := &f.corpus.Test[i%len(f.corpus.Test)]
		want := offlineCategories(t, f.modelA, d)
		if fmt.Sprint(res.Categories) != fmt.Sprint(want) {
			t.Errorf("doc %d: categories %v, want %v", i, res.Categories, want)
		}
	}
}

func TestServeRejectsMalformedRequests(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, func(c *Config) { c.MaxBatch = 2 })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	cases := []struct {
		name, body string
	}{
		{"not JSON", `{`},
		{"wrong type", `[1,2,3]`},
		{"trailing garbage", `{"text":"x"} {"text":"y"}`},
		{"neither form", `{"scores":true}`},
		{"both forms", `{"text":"x","documents":[{"text":"y"}]}`},
		{"empty batch", `{"documents":[]}`},
		{"batch too large", `{"documents":[{"text":"a"},{"text":"b"},{"text":"c"}]}`},
		{"unknown field", `{"text":"x","bogus":1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, hs.URL+"/v1/classify", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
			}
			var er errorResponse
			if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
				t.Errorf("400 body is not an error JSON: %s", b)
			}
		})
	}

	t.Run("GET rejected", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/classify")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status %d, want 405", resp.StatusCode)
		}
	})
}

func TestServeOversizedBody413(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, func(c *Config) { c.MaxBodyBytes = 256 })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	big := fmt.Sprintf(`{"text":%q}`, strings.Repeat("word ", 200))
	resp, b := postJSON(t, hs.URL+"/v1/classify", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, b)
	}
}

func TestServeTimeout504(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	d := &f.corpus.Test[0]
	resp, b := postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q}`, docText(d)))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, b)
	}
}

func TestServeQueueFull503(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, func(c *Config) {
		c.RequestTimeout = 100 * time.Millisecond
		c.QueueDepth = 1
	})
	// Replace the pool with a worker-less one: submissions stay queued
	// forever, so the queue fills deterministically.
	s.pool.close()
	s.pool = newPool(0, 1, s.cfg.Metrics, s.stages, s.stats)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	d := fmt.Sprintf(`{"text":%q}`, docText(&f.corpus.Test[0]))
	// First request occupies the only queue slot until its deadline —
	// and stays in the queue after the 504, since no worker drains it.
	resp, b := postJSON(t, hs.URL+"/v1/classify", d)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("first request: status %d, want 504: %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, hs.URL+"/v1/classify", d)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503: %s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("503 Retry-After = %q, want a positive seconds hint", ra)
	}
	reg := s.cfg.Metrics
	if got := reg.Counter("serve.queue.rejected").Value(); got < 1 {
		t.Errorf("serve.queue.rejected = %d, want >= 1", got)
	}
}

// TestServeOverloadShedsFast proves the overload contract: once the
// queue is full, every further request is shed at once with 503 and a
// Retry-After hint, and the queued requests still complete with their
// offline categories — overload never stalls into 504. The sheds are
// all answered while no worker exists, so a shed never waits on
// scoring; statz then accounts for every request.
func TestServeOverloadShedsFast(t *testing.T) {
	const queued, shed = 4, 12
	f := getFixture(t)
	s := newTestServer(t, f.pathA, func(c *Config) {
		c.QueueDepth = queued
		c.RequestTimeout = 30 * time.Second
	})
	// A worker-less pool: queued jobs wait until the test starts a
	// worker itself.
	s.pool.close()
	s.pool = newPool(0, queued, s.cfg.Metrics, s.stages, s.stats)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	doc := &f.corpus.Test[0]
	body := fmt.Sprintf(`{"text":%q}`, docText(doc))
	type reply struct {
		status     int
		retryAfter string
		body       []byte
		err        error
	}
	// fire sends k concurrent classify requests and returns the channel
	// their replies arrive on.
	fire := func(k int) <-chan reply {
		out := make(chan reply, k)
		for i := 0; i < k; i++ {
			go func() {
				resp, err := http.Post(hs.URL+"/v1/classify", "application/json", strings.NewReader(body))
				if err != nil {
					out <- reply{err: err}
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				out <- reply{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: b, err: err}
			}()
		}
		return out
	}

	inQueue := fire(queued)
	for len(s.pool.queue) < queued {
		select {
		case r := <-inQueue:
			t.Fatalf("request answered before the queue filled: status %d, err %v: %s", r.status, r.err, r.body)
		default:
			runtime.Gosched()
		}
	}
	overflow := fire(shed)
	for i := 0; i < shed; i++ {
		r := <-overflow
		if r.err != nil {
			t.Fatalf("overflow request: %v", r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("overflow request: status %d, want 503: %s", r.status, r.body)
		}
		if ra, err := strconv.Atoi(r.retryAfter); err != nil || ra < 1 {
			t.Errorf("503 Retry-After = %q, want whole seconds >= 1", r.retryAfter)
		}
	}

	// Only now does a worker exist to drain the queue.
	s.pool.wg.Add(1)
	go s.pool.worker()
	offline := fmt.Sprint(offlineCategories(t, f.modelA, doc))
	for i := 0; i < queued; i++ {
		r := <-inQueue
		if r.err != nil {
			t.Fatalf("queued request: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("queued request: status %d, want 200: %s", r.status, r.body)
		}
		if got := fmt.Sprint(decodeClassify(t, r.body).Results[0].Categories); got != offline {
			t.Errorf("categories %s, want offline %s", got, offline)
		}
	}

	sz := getStatz(t, hs.URL)
	if sz.Requests.Total != queued+shed || sz.Requests.OK != queued ||
		sz.Requests.Shed != shed || sz.Requests.Timeout != 0 {
		t.Errorf("statz requests = %+v, want total %d, ok %d, shed %d, timeout 0",
			sz.Requests, queued+shed, queued, shed)
	}
	for stage, want := range map[string]int64{"decode": queued + shed, "queue": queued, "classify": queued, "write": queued} {
		if got := sz.Stages[stage].Count; got != want {
			t.Errorf("stage %s count = %d, want %d", stage, got, want)
		}
	}
}

func TestServeHealthzAndModelz(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.ModelHash != f.hashA {
		t.Errorf("healthz = %+v, want ok/%s", h, f.hashA)
	}

	resp, err = http.Get(hs.URL + "/v1/modelz")
	if err != nil {
		t.Fatal(err)
	}
	var m ModelzResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.ModelHash != f.hashA {
		t.Errorf("modelz hash %q, want %q", m.ModelHash, f.hashA)
	}
	v := findVersion(t, m.ModelsResponse, SingleModelName, SingleModelVersion)
	if v.FeatureMethod != "df" {
		t.Errorf("modelz feature_method %q, want df", v.FeatureMethod)
	}
	if len(v.Categories) != len(f.modelA.Categories()) {
		t.Errorf("modelz categories %v", v.Categories)
	}
	if m.Metrics == nil {
		t.Error("modelz metrics snapshot missing despite a live registry")
	}
	if v.LoadedAt == nil || v.LoadedAt.IsZero() {
		t.Error("modelz loaded_at is zero")
	}
}

func TestServeHotReloadSwapsPredictions(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	live := filepath.Join(dir, "live.json")
	copyFile(t, f.pathA, live)
	s := newTestServer(t, live, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	d := &f.corpus.Test[0]
	body := fmt.Sprintf(`{"text":%q,"scores":true}`, docText(d))
	_, b := postJSON(t, hs.URL+"/v1/classify", body)
	if cr := decodeClassify(t, b); cr.ModelHash != f.hashA {
		t.Fatalf("pre-reload hash %q, want %q", cr.ModelHash, f.hashA)
	}

	copyFile(t, f.pathB, live)
	resp, b := postJSON(t, hs.URL+"/v1/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, b)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ModelHash != f.hashB || rr.PreviousHash != f.hashA || !rr.Changed {
		t.Errorf("reload = %+v, want %s -> %s changed", rr, f.hashA, f.hashB)
	}

	_, b = postJSON(t, hs.URL+"/v1/classify", body)
	cr := decodeClassify(t, b)
	if cr.ModelHash != f.hashB {
		t.Fatalf("post-reload hash %q, want %q", cr.ModelHash, f.hashB)
	}
	want := offlineCategories(t, f.modelB, d)
	if fmt.Sprint(cr.Results[0].Categories) != fmt.Sprint(want) {
		t.Errorf("post-reload categories %v, want model B's %v", cr.Results[0].Categories, want)
	}
}

func TestServeReloadFailureKeepsServing(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	live := filepath.Join(dir, "live.json")
	copyFile(t, f.pathA, live)
	s := newTestServer(t, live, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	if err := os.WriteFile(live, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, b := postJSON(t, hs.URL+"/v1/reload", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt snapshot: status %d, want 500: %s", resp.StatusCode, b)
	}
	// The old model must keep serving.
	d := &f.corpus.Test[0]
	resp, b = postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q}`, docText(d)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify after failed reload: status %d: %s", resp.StatusCode, b)
	}
	if cr := decodeClassify(t, b); cr.ModelHash != f.hashA {
		t.Errorf("hash after failed reload %q, want the original %q", cr.ModelHash, f.hashA)
	}
}

// TestServeMethodMismatch mirrors the cmd/tdc -method fix at the
// serving layer: a server required to serve method X refuses to load a
// snapshot trained under Y.
func TestServeMethodMismatch(t *testing.T) {
	f := getFixture(t)
	if _, err := New(Config{ModelPath: f.pathA, Method: featsel.MI}); err == nil {
		t.Fatal("server loaded a df snapshot under a required mi method")
	} else if !strings.Contains(err.Error(), "feature method") {
		t.Errorf("error %q does not explain the method mismatch", err)
	}
}

// TestServeParityWithOffline is the acceptance check: a 1000-document
// run through the HTTP server must produce byte-identical predictions
// to offline classification on the same snapshot.
func TestServeParityWithOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-document parity run skipped in -short")
	}
	f := getFixture(t)
	s := newTestServer(t, f.pathA, func(c *Config) {
		c.MaxBatch = 100
		c.MaxBodyBytes = 8 << 20
	})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	const total, batch = 1000, 100
	var serverOut, offlineOut bytes.Buffer
	for start := 0; start < total; start += batch {
		var entries []string
		for i := start; i < start+batch; i++ {
			d := &f.corpus.Test[i%len(f.corpus.Test)]
			entries = append(entries, fmt.Sprintf(`{"id":"doc-%d","text":%q}`, i, docText(d)))
		}
		resp, b := postJSON(t, hs.URL+"/v1/classify",
			`{"documents":[`+strings.Join(entries, ",")+`],"scores":true}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch at %d: status %d: %s", start, resp.StatusCode, b)
		}
		cr := decodeClassify(t, b)
		if cr.ModelHash != f.hashA {
			t.Fatalf("batch at %d scored by %q, want %q", start, cr.ModelHash, f.hashA)
		}
		for i, res := range cr.Results {
			fmt.Fprintf(&serverOut, "doc-%d %v", start+i, res.Categories)
			for _, p := range res.Predictions {
				fmt.Fprintf(&serverOut, " %s=%v", p.Category, p.Score)
			}
			fmt.Fprintln(&serverOut)
		}
	}
	pre := textproc.NewPreprocessor(textproc.Options{})
	for i := 0; i < total; i++ {
		d := &f.corpus.Test[i%len(f.corpus.Test)]
		// Offline goes through the same text round-trip the server
		// sees, so tokenisation is identical by construction.
		doc := corpus.Document{ID: fmt.Sprintf("doc-%d", i), Words: pre.Process(docText(d))}
		preds, err := f.modelA.ClassifyDoc(&doc, nil)
		if err != nil {
			t.Fatal(err)
		}
		cats := []string{}
		for _, p := range preds {
			if p.InClass {
				cats = append(cats, p.Category)
			}
		}
		fmt.Fprintf(&offlineOut, "doc-%d %v", i, cats)
		for _, p := range preds {
			fmt.Fprintf(&offlineOut, " %s=%v", p.Category, p.Score)
		}
		fmt.Fprintln(&offlineOut)
	}
	if !bytes.Equal(serverOut.Bytes(), offlineOut.Bytes()) {
		t.Fatal("server and offline predictions differ byte-for-byte")
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Write-then-rename keeps the swap atomic for reloaders racing us.
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		t.Fatal(err)
	}
}

// TestServeClosesTricklingClients: clients that trickle their headers
// must neither starve other clients nor outlive the header timeout of
// the http.Server that HTTPServer builds.
func TestServeClosesTricklingClients(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, nil)
	const timeout = 2 * time.Second
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = s.HTTPServer()
	ts.Config.ReadHeaderTimeout = timeout
	ts.Start()
	defer ts.Close()

	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	conns := make([]net.Conn, 8)
	for i := range conns {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := io.WriteString(c, "GET /v1/healthz HTTP/1.1\r\nHost: trickle\r\nX-Trickle: "); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if _, err := c.Write([]byte("a")); err != nil {
						return
					}
				}
			}
		}()
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d while clients trickle", resp.StatusCode)
	}
	resp, b := postJSON(t, ts.URL+"/v1/classify", fmt.Sprintf(`{"text":%q}`, docText(&f.corpus.Test[0])))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d while clients trickle: %s", resp.StatusCode, b)
	}
	if answered := time.Since(start); answered >= timeout {
		t.Fatalf("healthz and classify took %v, not inside the %v the trickling clients hold", answered, timeout)
	}

	for i, c := range conns {
		if err := c.SetReadDeadline(start.Add(timeout + 10*time.Second)); err != nil {
			t.Fatal(err)
		}
		_, err := io.Copy(io.Discard, c)
		closed := time.Since(start)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("trickling connection %d still open after %v", i, closed)
		}
		if closed < timeout {
			t.Errorf("trickling connection %d closed after %v, before the %v header timeout", i, closed, timeout)
		}
	}
}
