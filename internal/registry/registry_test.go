package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/telemetry"
)

// --- shared fixture: one tiny trained snapshot, reused everywhere ---
//
// Registry tests need real snapshot bytes (loads go through
// core.LoadFile, which rebuilds the full model), but they never need
// more than one: distinct (model, version) keys can share identical
// content, and content-distinct versions are made by re-saving with a
// trailing newline.

type regFixture struct {
	corpus *corpus.Corpus
	model  *core.Model
	path   string // the trained snapshot file
	hash   string
	bytes  int64
	// pathAlt is the same model with one byte of trailing whitespace:
	// same predictions, different snapshot hash.
	pathAlt string
	hashAlt string
}

var (
	regFixOnce sync.Once
	regFix     *regFixture
	regFixErr  error
)

func buildRegFixture() (*regFixture, error) {
	gen := reuters.DefaultGenConfig()
	gen.Scale = 0.008
	gen.Seed = 11
	c, err := reuters.GenerateCorpus(gen)
	if err != nil {
		return nil, err
	}
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 20
	gp.Tournaments = 300
	gp.MaxPages = 4
	gp.MaxPageSize = 4
	gp.DSS = &lgp.DSSConfig{SubsetSize: 20, Interval: 25}
	cfg := core.Config{
		FeatureMethod: featsel.DF,
		FeatureConfig: featsel.Config{GlobalN: 60, PerCategoryN: 25},
		Encoder: hsom.Config{
			CharWidth: 5, CharHeight: 5,
			WordWidth: 4, WordHeight: 4,
			CharEpochs: 2, WordEpochs: 3,
			BMUFanout: 3,
			Seed:      6,
		},
		GP:       gp,
		Restarts: 1,
		Seed:     5,
	}
	m, err := core.Train(cfg, c)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "registry-fixture")
	if err != nil {
		return nil, err
	}
	f := &regFixture{corpus: c, path: filepath.Join(dir, "snap.json"), pathAlt: filepath.Join(dir, "snap-alt.json")}
	out, err := os.Create(f.path)
	if err != nil {
		return nil, err
	}
	if err := m.Save(out); err != nil {
		out.Close()
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	// Reload from disk so the reference model is exactly the persisted
	// one, and record the snapshot identity.
	lm, info, err := core.LoadFile(f.path)
	if err != nil {
		return nil, err
	}
	f.model, f.hash, f.bytes = lm, info.SHA256, info.Bytes
	// The alt snapshot: identical JSON plus trailing whitespace — loads
	// to the same model but hashes differently.
	b, err := os.ReadFile(f.path)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(f.pathAlt, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	if _, altInfo, err := core.LoadFile(f.pathAlt); err != nil {
		return nil, fmt.Errorf("alt snapshot does not load: %w", err)
	} else if altInfo.SHA256 == f.hash {
		return nil, fmt.Errorf("alt snapshot hash did not change")
	} else {
		f.hashAlt = altInfo.SHA256
	}
	return f, nil
}

func getRegFixture(t testing.TB) *regFixture {
	t.Helper()
	regFixOnce.Do(func() { regFix, regFixErr = buildRegFixture() })
	if regFixErr != nil {
		t.Fatalf("fixture: %v", regFixErr)
	}
	return regFix
}

// stamp returns a deterministic publish timestamp n steps after a
// fixed epoch, so version ordering in tests never depends on the
// wall clock.
func stamp(n int) time.Time {
	return time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(n) * time.Minute)
}

func mustPublish(t *testing.T, root, model, version, src string, opts PublishOptions) Manifest {
	t.Helper()
	man, err := Publish(root, model, version, src, opts)
	if err != nil {
		t.Fatalf("publish %s/%s: %v", model, version, err)
	}
	return man
}

func openReg(t *testing.T, root string, mod func(*Config)) *Registry {
	t.Helper()
	cfg := Config{Root: root, Metrics: telemetry.NewRegistry()}
	if mod != nil {
		mod(&cfg)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatalf("registry.Open: %v", err)
	}
	return r
}

// residentNames renders the resident versions as "model/version"
// strings, sorted by Models' deterministic order.
func residentNames(r *Registry) []string {
	var out []string
	for _, m := range r.Models() {
		for _, v := range m.Versions {
			if v.Resident {
				out = append(out, m.Name+"/"+v.Version)
			}
		}
	}
	return out
}

func counter(r *Registry, name string) int64 {
	return r.cfg.Metrics.Counter(name).Value()
}

// --- publish + scan ---

func TestPublishAndScan(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	mustPublish(t, root, "earn", "v2", f.pathAlt, PublishOptions{CreatedAt: stamp(1)})
	mustPublish(t, root, "acq", "v1", f.path, PublishOptions{CreatedAt: stamp(2)})

	r := openReg(t, root, nil)
	models := r.Models()
	if len(models) != 2 {
		t.Fatalf("models = %d, want 2: %+v", len(models), models)
	}
	// Sorted by name: acq before earn.
	if models[0].Name != "acq" || models[1].Name != "earn" {
		t.Fatalf("model order %q, %q; want acq, earn", models[0].Name, models[1].Name)
	}
	earn := models[1]
	if len(earn.Versions) != 2 {
		t.Fatalf("earn versions = %d, want 2", len(earn.Versions))
	}
	if earn.Versions[0].Version != "v1" || earn.Versions[0].Latest {
		t.Errorf("earn v1 = %+v, want oldest and not latest", earn.Versions[0])
	}
	if earn.Versions[1].Version != "v2" || !earn.Versions[1].Latest {
		t.Errorf("earn v2 = %+v, want latest", earn.Versions[1])
	}
	if earn.Versions[0].SHA256 != f.hash || earn.Versions[1].SHA256 != f.hashAlt {
		t.Errorf("hashes %q/%q, want %q/%q",
			earn.Versions[0].SHA256, earn.Versions[1].SHA256, f.hash, f.hashAlt)
	}
	for _, v := range append(earn.Versions, models[0].Versions...) {
		if v.Resident {
			t.Errorf("%s marked resident before any Acquire", v.Version)
		}
	}
}

func TestPublishRejects(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	ok := PublishOptions{CreatedAt: stamp(0)}
	cases := []struct {
		name                string
		model, version, src string
		opts                PublishOptions
	}{
		{"dotdot model", "..", "v1", f.path, ok},
		{"separator in model", "a/b", "v1", f.path, ok},
		{"leading dot", ".hidden", "v1", f.path, ok},
		{"empty version", "m", "", f.path, ok},
		{"overlong name", strings.Repeat("x", 65), "v1", f.path, ok},
		{"zero created-at", "m", "v1", f.path, PublishOptions{}},
		{"method mismatch", "m", "v1", f.path, PublishOptions{CreatedAt: stamp(0), Method: featsel.MI}},
		{"missing source", "m", "v1", filepath.Join(root, "nope.json"), ok},
	}
	for _, c := range cases {
		if _, err := Publish(root, c.model, c.version, c.src, c.opts); err == nil {
			t.Errorf("%s: publish succeeded", c.name)
		}
	}
	// Not-a-snapshot source.
	garbage := filepath.Join(root, "garbage.json")
	if err := os.WriteFile(garbage, []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Publish(root, "m", "v1", garbage, ok); err == nil {
		t.Error("non-snapshot source published")
	}
	// Versions are immutable.
	mustPublish(t, root, "m", "v1", f.path, ok)
	if _, err := Publish(root, "m", "v1", f.path, PublishOptions{CreatedAt: stamp(1)}); err == nil {
		t.Error("republish over an existing version succeeded")
	}
	// Nothing above may have left a visible half-version behind.
	r := openReg(t, root, nil)
	if got := r.Models(); len(got) != 1 || len(got[0].Versions) != 1 {
		t.Errorf("registry after failed publishes = %+v, want just m/v1", got)
	}
}

func TestScanSkipsInvalidVersions(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "good", f.path, PublishOptions{CreatedAt: stamp(0)})

	// Corrupt manifest: truncated JSON.
	badManifest := filepath.Join(root, "earn", "badman")
	if err := os.MkdirAll(badManifest, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badManifest, "manifest.json"), []byte(`{"model": "earn"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncated snapshot: manifest fine, snapshot.bin shorter than it
	// says (the manifest is the good version's with the name rewritten).
	short := filepath.Join(root, "earn", "short")
	if err := os.MkdirAll(short, 0o755); err != nil {
		t.Fatal(err)
	}
	mb, err := os.ReadFile(filepath.Join(root, "earn", "good", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	mb = []byte(strings.ReplaceAll(string(mb), `"good"`, `"short"`))
	if err := os.WriteFile(filepath.Join(short, "manifest.json"), mb, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(short, "snapshot.bin"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Location mismatch: a valid version directory copied under the
	// wrong name.
	moved := filepath.Join(root, "earn", "moved")
	if err := os.MkdirAll(moved, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"manifest.json", "snapshot.bin"} {
		b, err := os.ReadFile(filepath.Join(root, "earn", "good", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(moved, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A manifest that still carries the retired "kernel" field, as
	// `tdc publish -kernel` once wrote it: the decoder rejects unknown
	// fields, so the version is skipped, whatever the value, and the
	// operator republishes it under a new version.
	kernel := filepath.Join(root, "earn", "withkernel")
	if err := os.MkdirAll(kernel, 0o755); err != nil {
		t.Fatal(err)
	}
	km := strings.ReplaceAll(string(mb), `"short"`, `"withkernel"`)
	km = strings.Replace(km, `"created_at"`, `"kernel": "float64",
  "created_at"`, 1)
	if err := os.WriteFile(filepath.Join(kernel, "manifest.json"), []byte(km), 0o644); err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(filepath.Join(root, "earn", "good", "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(kernel, "snapshot.bin"), sb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(strings.NewReader(km)); err == nil || !strings.Contains(err.Error(), `"kernel"`) {
		t.Fatalf("manifest with a kernel field: DecodeManifest error = %v, want the unknown field named", err)
	}
	// A crashed publish's leftover temp dir, and a stray file in the root.
	tempDir := filepath.Join(root, "earn", ".tmp-crashed-123")
	if err := os.MkdirAll(tempDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README.txt"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openReg(t, root, nil)
	stats, err := r.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if stats.Models != 1 || stats.Versions != 1 {
		t.Errorf("scan accepted %d models / %d versions, want 1/1", stats.Models, stats.Versions)
	}
	if stats.Skipped != 4 {
		t.Errorf("scan skipped %d, want 4 (bad manifest, short snapshot, location mismatch, kernel field)", stats.Skipped)
	}
	if stats.TempDirs != 1 {
		t.Errorf("scan temp dirs %d, want 1", stats.TempDirs)
	}
	// The temp dir must survive the scan: an external publisher may
	// still be writing into it.
	if _, err := os.Stat(tempDir); err != nil {
		t.Errorf("scan removed the in-progress publish dir: %v", err)
	}
	// Skips are counted, never fatal: the good version still serves.
	snap, err := r.Acquire(context.Background(), "earn", "good")
	if err != nil {
		t.Fatalf("Acquire good version after skips: %v", err)
	}
	if snap.Info.SHA256 != f.hash {
		t.Errorf("served hash %q, want %q", snap.Info.SHA256, f.hash)
	}
	if got := counter(r, "registry.scan.skipped"); got < 4 {
		t.Errorf("registry.scan.skipped = %d, want >= 4", got)
	}
	if got := counter(r, "registry.scan.tempdirs"); got < 1 {
		t.Errorf("registry.scan.tempdirs = %d, want >= 1", got)
	}
}

func TestManifestValidation(t *testing.T) {
	for _, name := range []string{"earn", "a.b-c_d", "V1", strings.Repeat("x", 64)} {
		if err := ValidateName(name); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"", ".", "..", ".hid", "a/b", `a\b`, "a b", "ü", strings.Repeat("x", 65)} {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) accepted", name)
		}
	}

	valid := Manifest{
		Model: "earn", Version: "v1",
		SHA256:        strings.Repeat("ab", 32),
		Bytes:         10,
		FeatureMethod: "df",
		CreatedAt:     stamp(0),
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	mutate := func(f func(*Manifest)) *Manifest { m := valid; f(&m); return &m }
	bad := map[string]*Manifest{
		"traversal model": mutate(func(m *Manifest) { m.Model = "../../etc" }),
		"uppercase sha":   mutate(func(m *Manifest) { m.SHA256 = strings.Repeat("AB", 32) }),
		"short sha":       mutate(func(m *Manifest) { m.SHA256 = "abcd" }),
		"zero bytes":      mutate(func(m *Manifest) { m.Bytes = 0 }),
		"bad method":      mutate(func(m *Manifest) { m.FeatureMethod = "tfidf" }),
		"zero created-at": mutate(func(m *Manifest) { m.CreatedAt = time.Time{} }),
	}
	for name, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}

	// DecodeManifest: the byte-level gate.
	if _, err := DecodeManifest(strings.NewReader(`{"model": "earn"`)); err == nil {
		t.Error("truncated manifest accepted")
	}
	if _, err := DecodeManifest(strings.NewReader(`{"model": "earn", "surprise": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	good := fmt.Sprintf(`{"model":"earn","version":"v1","sha256":%q,"bytes":10,"feature_method":"df","created_at":"2024-03-01T12:00:00Z"}`,
		strings.Repeat("ab", 32))
	if _, err := DecodeManifest(strings.NewReader(good)); err != nil {
		t.Errorf("good manifest rejected: %v", err)
	}
	if _, err := DecodeManifest(strings.NewReader(good + `{"model":"x"}`)); err == nil {
		t.Error("trailing data accepted")
	}
	// The read cap truncates oversized manifests mid-value, so they fail
	// to decode instead of being slurped into memory.
	huge := `{"model":"` + strings.Repeat("x", maxManifestBytes) + `","version":"v1"}`
	if _, err := DecodeManifest(strings.NewReader(huge)); err == nil {
		t.Error("oversized manifest accepted")
	}
}

// --- acquire: defaults, resolution, errors ---

func TestAcquireResolution(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	mustPublish(t, root, "earn", "v2", f.pathAlt, PublishOptions{CreatedAt: stamp(1)})
	ctx := context.Background()

	r := openReg(t, root, nil)
	// Sole model is the implicit default; empty version takes the latest.
	snap, err := r.Acquire(ctx, "", "")
	if err != nil {
		t.Fatalf("Acquire default: %v", err)
	}
	if snap.Name != "earn" || snap.Version != "v2" || snap.Info.SHA256 != f.hashAlt {
		t.Errorf("default resolved to %s/%s (%s), want earn/v2 (%s)", snap.Name, snap.Version, snap.Info.SHA256, f.hashAlt)
	}
	// Explicit older version still serves.
	snap, err = r.Acquire(ctx, "earn", "v1")
	if err != nil {
		t.Fatalf("Acquire earn/v1: %v", err)
	}
	if snap.Version != "v1" || snap.Info.SHA256 != f.hash {
		t.Errorf("earn/v1 resolved to %s (%s), want v1 (%s)", snap.Version, snap.Info.SHA256, f.hash)
	}
	// Unknown names map to the sentinels.
	if _, err := r.Acquire(ctx, "nope", ""); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model error = %v, want ErrUnknownModel", err)
	}
	if _, err := r.Acquire(ctx, "earn", "v9"); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("unknown version error = %v, want ErrUnknownVersion", err)
	}

	// Two models, no configured default: unnamed requests must name one.
	mustPublish(t, root, "acq", "v1", f.path, PublishOptions{CreatedAt: stamp(2)})
	r2 := openReg(t, root, nil)
	if _, err := r2.Acquire(ctx, "", ""); !errors.Is(err, ErrModelRequired) {
		t.Errorf("ambiguous default error = %v, want ErrModelRequired", err)
	}
	if _, ok := r2.Default(); ok {
		t.Error("Default() ok with two models and no configured default")
	}
	// A configured default disambiguates.
	r3 := openReg(t, root, func(c *Config) { c.Default = "acq" })
	snap, err = r3.Acquire(ctx, "", "")
	if err != nil {
		t.Fatalf("Acquire with configured default: %v", err)
	}
	if snap.Name != "acq" {
		t.Errorf("configured default resolved to %q, want acq", snap.Name)
	}
	model, version, sha, ok := r3.DefaultVersionInfo()
	if !ok || model != "acq" || version != "v1" || sha != f.hash {
		t.Errorf("DefaultVersionInfo = %q/%q/%q/%v, want acq/v1/%s/true", model, version, sha, ok, f.hash)
	}
	// A configured default that is not published is an error at Acquire.
	r4 := openReg(t, root, func(c *Config) { c.Default = "ghost" })
	if _, err := r4.Acquire(ctx, "", ""); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("missing configured default error = %v, want ErrUnknownModel", err)
	}
}

// --- single-flight ---

func TestAcquireSingleFlightStampede(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	r := openReg(t, root, nil)

	// Gate the loader so every stampeding goroutine is in Acquire before
	// the one real load can finish.
	release := make(chan struct{})
	var loads atomic.Int64
	orig := r.loader
	r.loader = func(path string) (*core.Model, core.SnapshotInfo, error) {
		loads.Add(1)
		<-release
		return orig(path)
	}

	const stampede = 32
	var wg sync.WaitGroup
	var entered sync.WaitGroup
	snaps := make([]*Snapshot, stampede)
	errs := make([]error, stampede)
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		entered.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Done()
			snaps[i], errs[i] = r.Acquire(context.Background(), "earn", "")
		}(i)
	}
	entered.Wait()
	close(release)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Fatalf("%d concurrent cold Acquires performed %d loads, want exactly 1", stampede, got)
	}
	for i := range snaps {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if snaps[i] != snaps[0] {
			t.Fatalf("goroutine %d got a different snapshot pointer", i)
		}
	}
	// Every non-loading goroutine either coalesced onto the in-flight
	// load or hit the already-resident entry.
	hits := counter(r, "registry.hits")
	coalesced := counter(r, "registry.singleflight.coalesced")
	if hits+coalesced != stampede-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d", hits, coalesced, hits+coalesced, stampede-1)
	}
	if got := counter(r, "registry.loads"); got != 1 {
		t.Errorf("registry.loads = %d, want 1", got)
	}
}

func TestAcquireLoadFailureRetries(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	r := openReg(t, root, nil)

	boom := errors.New("disk on fire")
	failures := 1
	orig := r.loader
	r.loader = func(path string) (*core.Model, core.SnapshotInfo, error) {
		if failures > 0 {
			failures--
			return nil, core.SnapshotInfo{}, boom
		}
		return orig(path)
	}
	ctx := context.Background()
	if _, err := r.Acquire(ctx, "earn", ""); !errors.Is(err, boom) {
		t.Fatalf("first Acquire error = %v, want the loader failure", err)
	}
	if got := counter(r, "registry.load.errors"); got != 1 {
		t.Errorf("registry.load.errors = %d, want 1", got)
	}
	// The failed entry must not linger: the next Acquire retries the load
	// and succeeds.
	snap, err := r.Acquire(ctx, "earn", "")
	if err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	if snap.Info.SHA256 != f.hash {
		t.Errorf("retried load hash %q, want %q", snap.Info.SHA256, f.hash)
	}
}

// TestAcquireCorruptSnapshotFailsEveryTime publishes a snapshot whose
// char map has Dim 1. Its header is valid and its sha256 matches, so
// only the load can reject it, and every Acquire must return that
// error. A load that panicked instead would skip the single-flight
// cleanup: the slot would stay resident with done never closed, and
// each later request for the version would wait out its deadline.
func TestAcquireCorruptSnapshotFailsEveryTime(t *testing.T) {
	f := getRegFixture(t)
	b, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var snap map[string]any
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	charMap := snap["encoder"].(map[string]any)["char_map"].(map[string]any)
	charMap["config"].(map[string]any)["Dim"] = 1
	weights := charMap["weights"].([]any)
	for u, w := range weights {
		weights[u] = w.([]any)[:1]
	}
	corrupt, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "dim1.json")
	if err := os.WriteFile(src, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", src, PublishOptions{CreatedAt: stamp(0)})
	r := openReg(t, root, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 2; i++ {
		_, err := r.Acquire(ctx, "earn", "")
		if err == nil {
			t.Fatalf("Acquire %d of a char map with Dim 1 succeeded", i)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Acquire %d waited out its deadline: %v", i, err)
		}
	}
	if got := counter(r, "registry.load.errors"); got != 2 {
		t.Errorf("registry.load.errors = %d, want 2", got)
	}
}

func TestAcquireWaiterHonorsContext(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	r := openReg(t, root, nil)

	started := make(chan struct{})
	release := make(chan struct{})
	orig := r.loader
	r.loader = func(path string) (*core.Model, core.SnapshotInfo, error) {
		close(started)
		<-release
		return orig(path)
	}
	loaderErr := make(chan error, 1)
	go func() {
		_, err := r.Acquire(context.Background(), "earn", "")
		loaderErr <- err
	}()
	<-started

	// A waiter whose deadline expires mid-load gets its context error,
	// not the load result.
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := r.Acquire(ctx, "earn", "")
		waiterErr <- err
	}()
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter error = %v, want context.Canceled", err)
	}
	// The load itself is unaffected.
	close(release)
	if err := <-loaderErr; err != nil {
		t.Fatalf("loading goroutine: %v", err)
	}
	if got := r.ResidentCount(); got != 1 {
		t.Errorf("resident count = %d, want 1", got)
	}
}

// --- LRU eviction ---

func TestLRUEvictionOrder(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	for _, m := range []string{"m1", "m2", "m3"} {
		mustPublish(t, root, m, "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	}
	r := openReg(t, root, func(c *Config) { c.MaxResident = 2 })
	ctx := context.Background()
	acquire := func(model string) *Snapshot {
		t.Helper()
		s, err := r.Acquire(ctx, model, "")
		if err != nil {
			t.Fatalf("Acquire %s: %v", model, err)
		}
		return s
	}

	pinned := acquire("m1")
	acquire("m2")
	acquire("m3") // bound is 2: evicts m1, the least recently acquired
	if got := residentNames(r); !reflect.DeepEqual(got, []string{"m2/v1", "m3/v1"}) {
		t.Fatalf("resident after m3 = %v, want [m2/v1 m3/v1]", got)
	}
	acquire("m2") // touch m2: m3 becomes the LRU tail
	acquire("m1") // evicts m3, not m2
	if got := residentNames(r); !reflect.DeepEqual(got, []string{"m1/v1", "m2/v1"}) {
		t.Fatalf("resident after touch+reload = %v, want [m1/v1 m2/v1]", got)
	}
	if got := counter(r, "registry.evictions"); got != 2 {
		t.Errorf("registry.evictions = %d, want 2", got)
	}

	// The snapshot pinned before its eviction keeps serving: eviction
	// drops the registry's reference, never the model under a request.
	probe := &f.corpus.Test[0]
	want, err := f.model.ClassifyDoc(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pinned.Model.ClassifyDoc(probe, nil)
	if err != nil {
		t.Fatalf("pinned snapshot classify after eviction: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pinned snapshot predictions diverged after eviction:\n got %v\nwant %v", got, want)
	}
}

func TestResidentBytesBound(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "m1", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	mustPublish(t, root, "m2", "v1", f.path, PublishOptions{CreatedAt: stamp(1)})
	ctx := context.Background()

	// A byte budget that fits one snapshot but not two.
	r := openReg(t, root, func(c *Config) { c.MaxResidentBytes = f.bytes + f.bytes/2 })
	if _, err := r.Acquire(ctx, "m1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(ctx, "m2", ""); err != nil {
		t.Fatal(err)
	}
	if got := residentNames(r); !reflect.DeepEqual(got, []string{"m2/v1"}) {
		t.Fatalf("resident under byte bound = %v, want [m2/v1]", got)
	}

	// A lone model larger than the whole budget still loads and stays:
	// the cache never evicts its only entry.
	r2 := openReg(t, root, func(c *Config) { c.MaxResidentBytes = 1 })
	if _, err := r2.Acquire(ctx, "m1", ""); err != nil {
		t.Fatalf("oversized lone model refused: %v", err)
	}
	if got := r2.ResidentCount(); got != 1 {
		t.Errorf("resident count = %d, want 1 (lone oversized model keeps serving)", got)
	}
}

// --- rescan while serving ---

func TestRescanDropsVanishedVersions(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	mustPublish(t, root, "acq", "v1", f.path, PublishOptions{CreatedAt: stamp(1)})
	r := openReg(t, root, nil)
	ctx := context.Background()

	pinned, err := r.Acquire(ctx, "earn", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "earn")); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if stats.Models != 1 {
		t.Errorf("scan models = %d, want 1", stats.Models)
	}
	if _, err := r.Acquire(ctx, "earn", ""); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("vanished model error = %v, want ErrUnknownModel", err)
	}
	if got := r.ResidentCount(); got != 0 {
		t.Errorf("resident count after drop = %d, want 0", got)
	}
	// The pinned snapshot outlives the rescan.
	if _, err := pinned.Model.ClassifyDoc(&f.corpus.Test[0], nil); err != nil {
		t.Errorf("pinned snapshot classify after rescan: %v", err)
	}
	// A new publish under the vanished name is picked up by the next scan.
	mustPublish(t, root, "earn", "v2", f.pathAlt, PublishOptions{CreatedAt: stamp(2)})
	if _, err := r.Scan(); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Acquire(ctx, "earn", "")
	if err != nil {
		t.Fatalf("Acquire after republish: %v", err)
	}
	if snap.Version != "v2" || snap.Info.SHA256 != f.hashAlt {
		t.Errorf("republished earn resolved to %s (%s), want v2 (%s)", snap.Version, snap.Info.SHA256, f.hashAlt)
	}
}

// TestLoadRejectsTamperedSnapshot covers the load-time integrity gate:
// a snapshot whose bytes changed after publish (hash mismatch vs the
// manifest) must not serve.
func TestLoadRejectsTamperedSnapshot(t *testing.T) {
	f := getRegFixture(t)
	root := t.TempDir()
	mustPublish(t, root, "earn", "v1", f.path, PublishOptions{CreatedAt: stamp(0)})
	// Tamper preserving size, so the scan's cheap stat check passes and
	// only the load-time hash comparison can catch it. Swapping one raw
	// whitespace byte keeps the JSON (and the loaded model) identical
	// while changing the file hash — raw newlines are always structural
	// in JSON, never string content.
	p := filepath.Join(root, "earn", "v1", "snapshot.bin")
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexByte(b, '\n')
	if i < 0 {
		i = bytes.LastIndexByte(b, ' ')
	}
	if i < 0 {
		t.Skip("snapshot has no whitespace byte to flip; update the tamper")
	}
	b[i] = '\t'
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openReg(t, root, nil)
	_, err = r.Acquire(context.Background(), "earn", "")
	if err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("tampered snapshot error = %v, want a sha256 mismatch", err)
	}
}
