package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"temporaldoc/internal/registry"
	"temporaldoc/internal/telemetry"
)

// pubStamp mirrors the registry tests' deterministic publish clock.
func pubStamp(n int) time.Time {
	return time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(n) * time.Minute)
}

// buildModelsDir publishes the fixture's two snapshots as a two-tenant
// registry: tenant-a/v1 = model A, tenant-b/v1 = model B.
func buildModelsDir(t *testing.T) string {
	t.Helper()
	f := getFixture(t)
	dir := t.TempDir()
	if _, err := registry.Publish(dir, "tenant-a", "v1", f.pathA, registry.PublishOptions{CreatedAt: pubStamp(0)}); err != nil {
		t.Fatalf("publish tenant-a: %v", err)
	}
	if _, err := registry.Publish(dir, "tenant-b", "v1", f.pathB, registry.PublishOptions{CreatedAt: pubStamp(1)}); err != nil {
		t.Fatalf("publish tenant-b: %v", err)
	}
	return dir
}

// newRegistryServer builds a registry-mode Server over dir.
func newRegistryServer(t *testing.T, dir string, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		ModelsDir:      dir,
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
		t.Fatalf("serve.New (registry mode): %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func getModels(t *testing.T, url string) ModelsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models: status %d", resp.StatusCode)
	}
	var mr ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("decode /v1/models: %v", err)
	}
	return mr
}

// version finds one version entry in a models listing.
func findVersion(t *testing.T, mr ModelsResponse, model, version string) registry.VersionStatus {
	t.Helper()
	for _, m := range mr.Models {
		if m.Name != model {
			continue
		}
		for _, v := range m.Versions {
			if v.Version == version {
				return v
			}
		}
	}
	t.Fatalf("version %s/%s not in listing: %+v", model, version, mr)
	return registry.VersionStatus{}
}

func TestServeModelsSingleMode(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, f.pathA, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	mr := getModels(t, hs.URL)
	if mr.DefaultModel != SingleModelName {
		t.Errorf("default model %q, want %q", mr.DefaultModel, SingleModelName)
	}
	if len(mr.Models) != 1 {
		t.Fatalf("models = %d, want exactly 1 (a single-model server is a one-entry registry)", len(mr.Models))
	}
	v := findVersion(t, mr, SingleModelName, SingleModelVersion)
	if v.SHA256 != f.hashA || !v.Latest || !v.Resident {
		t.Errorf("single-mode version = %+v, want hash %s, latest and resident", v, f.hashA)
	}

	// The synthetic names are also the only ones classify accepts.
	body := fmt.Sprintf(`{"text":%q, "model":%q}`, docText(&f.corpus.Test[0]), SingleModelName)
	resp, b := postJSON(t, hs.URL+"/v1/classify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify with synthetic name: status %d: %s", resp.StatusCode, b)
	}
	cr := decodeClassify(t, b)
	if cr.Model != SingleModelName || cr.Version != SingleModelVersion {
		t.Errorf("response names %s/%s, want %s/%s", cr.Model, cr.Version, SingleModelName, SingleModelVersion)
	}
	resp, b = postJSON(t, hs.URL+"/v1/classify",
		fmt.Sprintf(`{"text":%q, "model":"other"}`, docText(&f.corpus.Test[0])))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model on single server: status %d, want 404: %s", resp.StatusCode, b)
	}
}

func TestServeRegistryListingAndResidency(t *testing.T) {
	f := getFixture(t)
	s := newRegistryServer(t, buildModelsDir(t), nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	mr := getModels(t, hs.URL)
	if mr.DefaultModel != "" {
		t.Errorf("default model %q, want empty (two models, none configured)", mr.DefaultModel)
	}
	if len(mr.Models) != 2 {
		t.Fatalf("models = %d, want 2", len(mr.Models))
	}
	va := findVersion(t, mr, "tenant-a", "v1")
	if va.SHA256 != f.hashA || va.Resident {
		t.Errorf("tenant-a/v1 = %+v, want hash %s and cold before traffic", va, f.hashA)
	}

	// First request cold-loads; the listing then reports it resident.
	resp, b := postJSON(t, hs.URL+"/v1/classify",
		fmt.Sprintf(`{"text":%q, "model":"tenant-a"}`, docText(&f.corpus.Test[0])))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify tenant-a: status %d: %s", resp.StatusCode, b)
	}
	cr := decodeClassify(t, b)
	if cr.Model != "tenant-a" || cr.Version != "v1" || cr.ModelHash != f.hashA {
		t.Errorf("response = %s/%s (%s), want tenant-a/v1 (%s)", cr.Model, cr.Version, cr.ModelHash, f.hashA)
	}
	mr = getModels(t, hs.URL)
	if v := findVersion(t, mr, "tenant-a", "v1"); !v.Resident {
		t.Error("tenant-a/v1 still cold after serving a request")
	}
	if v := findVersion(t, mr, "tenant-b", "v1"); v.Resident {
		t.Error("tenant-b/v1 resident without traffic")
	}
}

func TestServeRegistryErrors(t *testing.T) {
	f := getFixture(t)
	s := newRegistryServer(t, buildModelsDir(t), nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	doc := docText(&f.corpus.Test[0])

	// Unknown model and unknown version are 404s with a JSON error body.
	for _, body := range []string{
		fmt.Sprintf(`{"text":%q, "model":"nope"}`, doc),
		fmt.Sprintf(`{"text":%q, "model":"tenant-a", "version":"v9"}`, doc),
	} {
		resp, b := postJSON(t, hs.URL+"/v1/classify", body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d, want 404: %s", resp.StatusCode, b)
		}
		var er errorResponse
		if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
			t.Errorf("404 body is not a JSON error: %s", b)
		}
	}
	// Two models, no default: an unnamed request must name one (400).
	resp, b := postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q}`, doc))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unnamed request: status %d, want 400: %s", resp.StatusCode, b)
	}

	// With a configured default the same request serves.
	s2 := newRegistryServer(t, buildModelsDir(t), func(c *Config) { c.DefaultModel = "tenant-b" })
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	resp, b = postJSON(t, hs2.URL+"/v1/classify", fmt.Sprintf(`{"text":%q}`, doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-model request: status %d: %s", resp.StatusCode, b)
	}
	if cr := decodeClassify(t, b); cr.Model != "tenant-b" || cr.ModelHash != f.hashB {
		t.Errorf("default resolved to %s (%s), want tenant-b (%s)", cr.Model, cr.ModelHash, f.hashB)
	}
}

// TestServeTenantByteParity is the multi-tenant correctness wall:
// interleaved concurrent requests to two resident models must each
// byte-match the offline output of exactly the model their embedded
// hash names — no cross-tenant mixing, ever.
func TestServeTenantByteParity(t *testing.T) {
	f := getFixture(t)
	// The whole burst goes out at once; a queue sized for it keeps
	// load-shedding (tested elsewhere) out of a correctness test.
	s := newRegistryServer(t, buildModelsDir(t), func(c *Config) { c.QueueDepth = 64 })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	probe := &f.corpus.Test[0]
	expected := map[string]string{
		f.hashA: renderPredictions(t, f.modelA, probe),
		f.hashB: renderPredictions(t, f.modelB, probe),
	}
	wantHash := map[string]string{"tenant-a": f.hashA, "tenant-b": f.hashB}

	const perTenant = 20
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				body := fmt.Sprintf(`{"text":%q, "model":%q, "scores":true}`, docText(probe), tenant)
				resp, err := http.Post(hs.URL+"/v1/classify", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var cr ClassifyResponse
				if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
					errs <- fmt.Errorf("%s: decode: %w", tenant, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", tenant, resp.StatusCode)
					return
				}
				if cr.ModelHash != wantHash[tenant] {
					errs <- fmt.Errorf("%s: served hash %s, want %s", tenant, cr.ModelHash, wantHash[tenant])
					return
				}
				if got := renderResponse(&cr); got != expected[cr.ModelHash] {
					errs <- fmt.Errorf("%s: response does not match the offline output of the model its hash names:\n got %s\nwant %s",
						tenant, got, expected[cr.ModelHash])
				}
			}(tenant)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServeRescanPicksUpNewVersion(t *testing.T) {
	f := getFixture(t)
	dir := buildModelsDir(t)
	s := newRegistryServer(t, dir, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	doc := docText(&f.corpus.Test[0])

	// Publish tenant-a/v2 (model B's snapshot) after the server started:
	// invisible until a rescan.
	if _, err := registry.Publish(dir, "tenant-a", "v2", f.pathB, registry.PublishOptions{CreatedAt: pubStamp(2)}); err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	resp, b := postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q, "model":"tenant-a", "version":"v2"}`, doc))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-rescan v2: status %d, want 404: %s", resp.StatusCode, b)
	}

	// POST /v1/reload is a rescan.
	resp, b = postJSON(t, hs.URL+"/v1/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, b)
	}
	var rr ReloadResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("decode rescan response: %v: %s", err, b)
	}
	if rr.Models != 2 || rr.Versions != 3 {
		t.Errorf("rescan = %+v, want 2 models / 3 versions", rr)
	}

	// v2 is now the latest: unversioned tenant-a requests resolve to it…
	if v := findVersion(t, getModels(t, hs.URL), "tenant-a", "v2"); !v.Latest {
		t.Error("tenant-a/v2 not marked latest after rescan")
	}
	resp, b = postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q, "model":"tenant-a"}`, doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rescan classify: status %d: %s", resp.StatusCode, b)
	}
	if cr := decodeClassify(t, b); cr.Version != "v2" || cr.ModelHash != f.hashB {
		t.Errorf("latest resolved to %s (%s), want v2 (%s)", cr.Version, cr.ModelHash, f.hashB)
	}
	// …while the explicit old version keeps serving the old bytes.
	resp, b = postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q, "model":"tenant-a", "version":"v1"}`, doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit v1: status %d: %s", resp.StatusCode, b)
	}
	if cr := decodeClassify(t, b); cr.Version != "v1" || cr.ModelHash != f.hashA {
		t.Errorf("explicit v1 served %s (%s), want v1 (%s)", cr.Version, cr.ModelHash, f.hashA)
	}
}

func TestServeRegistryStatzAndHealthz(t *testing.T) {
	f := getFixture(t)
	s := newRegistryServer(t, buildModelsDir(t), func(c *Config) { c.DefaultModel = "tenant-a" })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	doc := docText(&f.corpus.Test[0])

	for _, tenant := range []string{"tenant-a", "tenant-a", "tenant-b"} {
		resp, b := postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q, "model":%q}`, doc, tenant))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %s: status %d: %s", tenant, resp.StatusCode, b)
		}
	}

	resp, err := http.Get(hs.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatzResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	if sr.ModelHash != f.hashA {
		t.Errorf("statz identity hash %q, want the default model's %q", sr.ModelHash, f.hashA)
	}
	if got := sr.Models["tenant-a"]; got.Requests != 2 || got.Docs != 2 {
		t.Errorf("tenant-a stats = %+v, want 2 requests / 2 docs", got)
	}
	if got := sr.Models["tenant-b"]; got.Requests != 1 || got.Docs != 1 {
		t.Errorf("tenant-b stats = %+v, want 1 request / 1 doc", got)
	}

	hresp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hr.Status != "ok" || hr.Model != "tenant-a" || hr.Version != "v1" || hr.ModelHash != f.hashA {
		t.Errorf("healthz = %+v, want ok tenant-a/v1 %s", hr, f.hashA)
	}
}

func TestServeRegistryEviction(t *testing.T) {
	f := getFixture(t)
	// Resident bound of 1: serving the second tenant evicts the first,
	// and the listing proves it — while both keep answering correctly.
	s := newRegistryServer(t, buildModelsDir(t), func(c *Config) { c.Resident = 1 })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	doc := docText(&f.corpus.Test[0])

	for i, tenant := range []string{"tenant-a", "tenant-b", "tenant-a"} {
		resp, b := postJSON(t, hs.URL+"/v1/classify", fmt.Sprintf(`{"text":%q, "model":%q}`, doc, tenant))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s", i, tenant, resp.StatusCode, b)
		}
		wantHash := f.hashA
		if tenant == "tenant-b" {
			wantHash = f.hashB
		}
		if cr := decodeClassify(t, b); cr.ModelHash != wantHash {
			t.Errorf("request %d (%s): hash %s, want %s", i, tenant, cr.ModelHash, wantHash)
		}
		mr := getModels(t, hs.URL)
		other := "tenant-b"
		if tenant == "tenant-b" {
			other = "tenant-a"
		}
		if v := findVersion(t, mr, tenant, "v1"); !v.Resident {
			t.Errorf("request %d: %s not resident after serving it", i, tenant)
		}
		if v := findVersion(t, mr, other, "v1"); v.Resident {
			t.Errorf("request %d: %s resident despite the bound of 1", i, other)
		}
	}
	if got := s.cfg.Metrics.Counter("registry.evictions").Value(); got != 2 {
		t.Errorf("registry.evictions = %d, want 2", got)
	}
}

func TestServeConfigModeValidation(t *testing.T) {
	f := getFixture(t)
	dir := buildModelsDir(t)
	bad := []Config{
		{},                                         // neither mode
		{ModelPath: f.pathA, ModelsDir: dir},       // both modes
		{ModelPath: f.pathA, DefaultModel: "x"},    // registry knob without registry mode
		{ModelPath: f.pathA, Resident: 2},          // ditto
		{ModelsDir: dir, Resident: -1},             // negative bound
		{ModelsDir: dir, ResidentBytes: -1},        // negative bound
		{ModelsDir: dir, DefaultModel: "bad/name"}, // unsafe default name fails at Open
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
