package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/telemetry"
)

// Sentinel errors the serving layer maps to HTTP statuses: unknown
// model/version become 404, a missing-but-required model name 400.
var (
	ErrUnknownModel   = errors.New("registry: unknown model")
	ErrUnknownVersion = errors.New("registry: unknown version")
	ErrModelRequired  = errors.New("registry: request must name a model (no default is configured and more than one model is published)")
)

// FileModel and FileVersion name the one entry a registry opened on a
// snapshot file serves.
const (
	FileModel   = "default"
	FileVersion = "current"
)

// Config parameterises one registry instance.
type Config struct {
	// Root is the registry directory (layout: <root>/<model>/<version>)
	// or a single snapshot file. It must exist; publishing creates model
	// directories beneath a directory root. A file root is served as the
	// one-entry catalog FileModel/FileVersion, always resident, and
	// every Scan re-reads it.
	Root string
	// Default, when set, is the model Acquire resolves an empty model
	// name to. When unset and exactly one model is published, that model
	// is the implicit default; otherwise an empty name is an error.
	Default string
	// MaxResident bounds how many models stay loaded at once (0 means
	// unlimited). Exceeding it evicts the least-recently-acquired
	// resident model — only from the registry's cache: snapshots already
	// pinned by requests stay valid.
	MaxResident int
	// MaxResidentBytes bounds the summed snapshot-file sizes of resident
	// models (0 means unlimited). A lone model larger than the bound
	// still loads — the cache never evicts its only entry.
	MaxResidentBytes int64
	// Method, when non-empty, requires every loaded snapshot to record
	// exactly this feature-selection method.
	Method featsel.Method
	// Metrics receives the registry counters; nil costs nothing.
	Metrics *telemetry.Registry
}

// ScanStats summarises one directory scan.
type ScanStats struct {
	// Models and Versions count what the scan accepted.
	Models   int `json:"models"`
	Versions int `json:"versions"`
	// Skipped counts versions rejected by validation (corrupt manifest,
	// name mismatch, missing or size-mismatched snapshot); TempDirs
	// counts leftover publish temp directories seen (and ignored).
	Skipped  int `json:"skipped"`
	TempDirs int `json:"temp_dirs"`
}

// VersionStatus is one published version as rendered by Models — the
// /v1/models building block.
type VersionStatus struct {
	Version       string    `json:"version"`
	SHA256        string    `json:"sha256"`
	Bytes         int64     `json:"bytes"`
	FeatureMethod string    `json:"feature_method"`
	CreatedAt     time.Time `json:"created_at"`
	// SnapshotPath is the snapshot file this version loads from.
	SnapshotPath string `json:"snapshot_path"`
	// Latest marks the version an empty-version Acquire resolves to.
	Latest bool `json:"latest"`
	// Resident reports whether this version is currently loaded; a
	// resident version also reports when it loaded and its categories.
	Resident   bool       `json:"resident"`
	LoadedAt   *time.Time `json:"loaded_at,omitempty"`
	Categories []string   `json:"categories,omitempty"`
}

// ModelStatus is one model's catalog entry as rendered by Models.
type ModelStatus struct {
	Name     string          `json:"name"`
	Versions []VersionStatus `json:"versions"`
}

// Snapshot is one loaded, immutable (model, version) pair. Requests pin
// a *Snapshot once and use it for their whole lifetime; the registry
// never mutates a published Snapshot, so eviction cannot invalidate it.
type Snapshot struct {
	Model    *core.Model
	Info     core.SnapshotInfo
	Name     string
	Version  string
	Manifest Manifest
	// LoadedAt is when this snapshot became resident (wall clock,
	// reporting only).
	LoadedAt time.Time
}

// catVersion is one scanned version in the catalog.
type catVersion struct {
	manifest Manifest
	path     string // the snapshot file
}

// catModel is one scanned model: its versions plus their latest-last
// ordering by (CreatedAt, Version).
type catModel struct {
	versions map[string]*catVersion
	order    []string
}

func (cm *catModel) latest() string { return cm.order[len(cm.order)-1] }

// resKey identifies one resident (or loading) model version.
type resKey struct{ model, version string }

// resEntry is the single-flight slot for one (model, version): exactly
// one goroutine loads while everyone else waits on done. snap and err
// are written before done is closed and only read after, so the channel
// close is the only synchronisation waiters need. Entries still in the
// resident map after done closes are always successes — a failed load
// removes its entry (under the registry lock) before closing done.
type resEntry struct {
	key  resKey
	done chan struct{}
	snap *Snapshot
	err  error
	// elem is the entry's LRU position; nil while loading (loading
	// entries are never eviction candidates).
	elem *list.Element
}

type regMetrics struct {
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	coalesced   *telemetry.Counter
	loads       *telemetry.Counter
	loadErrors  *telemetry.Counter
	evictions   *telemetry.Counter
	scanSkipped *telemetry.Counter
	scanTemp    *telemetry.Counter
}

// Registry is a live registry instance: the scanned catalog plus the
// resident-model LRU. All methods are safe for concurrent use.
type Registry struct {
	cfg Config
	// file is set when Root is a snapshot file rather than a directory.
	file bool

	// scanMu serialises Scan, so concurrent rescans (SIGHUP racing
	// POST /v1/reload) install their results in call order.
	scanMu sync.Mutex
	// mu guards catalog, resident, lru and residentBytes. It is held
	// only for map/list work — never across a model load.
	mu            sync.Mutex
	catalog       map[string]*catModel
	resident      map[resKey]*resEntry
	lru           *list.List // front = most recently acquired; values *resEntry
	residentBytes int64

	// loader performs the actual snapshot load; core.LoadFile in
	// production, replaced by tests to count loads and fake models.
	loader func(path string) (*core.Model, core.SnapshotInfo, error)

	met regMetrics
}

// Open validates the configuration, scans Root once and returns a live
// registry. An unreadable root is an error; an empty directory is a
// valid (zero-model) registry. A file root is loaded here, so a
// corrupt or mismatching snapshot fails Open.
func Open(cfg Config) (*Registry, error) {
	if cfg.Root == "" {
		return nil, errors.New("registry: Config.Root is required")
	}
	fi, err := os.Stat(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("registry: root: %w", err)
	}
	if cfg.Default != "" {
		if err := ValidateName(cfg.Default); err != nil {
			return nil, fmt.Errorf("registry: default model: %w", err)
		}
	}
	if cfg.Method != "" && !featsel.Known(cfg.Method) {
		return nil, fmt.Errorf("registry: unknown feature-selection method %q", cfg.Method)
	}
	if cfg.MaxResident < 0 || cfg.MaxResidentBytes < 0 {
		return nil, errors.New("registry: resident bounds must be >= 0")
	}
	r := &Registry{
		cfg:      cfg,
		file:     !fi.IsDir(),
		catalog:  map[string]*catModel{},
		resident: map[resKey]*resEntry{},
		lru:      list.New(),
		loader:   core.LoadFile,
		met: regMetrics{
			hits:        cfg.Metrics.Counter("registry.hits"),
			misses:      cfg.Metrics.Counter("registry.misses"),
			coalesced:   cfg.Metrics.Counter("registry.singleflight.coalesced"),
			loads:       cfg.Metrics.Counter("registry.loads"),
			loadErrors:  cfg.Metrics.Counter("registry.load.errors"),
			evictions:   cfg.Metrics.Counter("registry.evictions"),
			scanSkipped: cfg.Metrics.Counter("registry.scan.skipped"),
			scanTemp:    cfg.Metrics.Counter("registry.scan.tempdirs"),
		},
	}
	if _, err := r.Scan(); err != nil {
		return nil, err
	}
	return r, nil
}

// Scan re-reads the registry directory and swaps the catalog. Versions
// that fail validation are skipped (counted, never fatal); resident
// models whose version vanished from disk are dropped from the cache —
// requests that already pinned them are unaffected. Safe to call while
// serving: Acquire resolves names against whichever catalog is current.
// For a file root Scan reloads the file instead (see scanFile).
func (r *Registry) Scan() (ScanStats, error) {
	r.scanMu.Lock()
	defer r.scanMu.Unlock()
	if r.file {
		return r.scanFile()
	}
	var stats ScanStats
	catalog := map[string]*catModel{}
	entries, err := os.ReadDir(r.cfg.Root)
	if err != nil {
		return stats, fmt.Errorf("registry: scan: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if name[0] == '.' {
			stats.TempDirs++
			continue
		}
		if ValidateName(name) != nil {
			stats.Skipped++
			continue
		}
		cm := r.scanModel(name, &stats)
		if cm != nil {
			catalog[name] = cm
			stats.Models++
			stats.Versions += len(cm.order)
		}
	}
	r.met.scanSkipped.Add(int64(stats.Skipped))
	r.met.scanTemp.Add(int64(stats.TempDirs))

	r.mu.Lock()
	r.catalog = catalog
	// Drop resident entries whose version no longer exists on disk.
	// Loading entries stay: their loader already resolved a path, and
	// they leave the cache through the normal error/eviction paths.
	for key, e := range r.resident {
		if e.elem == nil {
			continue
		}
		if cm := catalog[key.model]; cm != nil && cm.versions[key.version] != nil {
			continue
		}
		r.evictLocked(e)
	}
	r.mu.Unlock()
	return stats, nil
}

// scanFile loads the snapshot file — read, hash, decode and validate,
// once — and installs it as the resident FileModel/FileVersion, with a
// catalog entry derived from what it loaded. On error nothing changes:
// the previous snapshot keeps serving. Requests that pinned it keep it
// after a swap too.
func (r *Registry) scanFile() (ScanStats, error) {
	cv := &catVersion{path: r.cfg.Root}
	snap, err := r.open(FileModel, FileVersion, cv.path)
	if err != nil {
		r.met.loadErrors.Inc()
		return ScanStats{}, err
	}
	cv.manifest = Manifest{
		Model:         FileModel,
		Version:       FileVersion,
		SHA256:        snap.Info.SHA256,
		Bytes:         snap.Info.Bytes,
		FeatureMethod: string(snap.Model.FeatureMethod()),
		CreatedAt:     snap.LoadedAt,
	}
	snap.Manifest = cv.manifest
	key := resKey{FileModel, FileVersion}
	e := &resEntry{key: key, done: make(chan struct{}), snap: snap}
	close(e.done)

	r.mu.Lock()
	r.catalog = map[string]*catModel{FileModel: {
		versions: map[string]*catVersion{FileVersion: cv},
		order:    []string{FileVersion},
	}}
	if old := r.resident[key]; old != nil {
		r.lru.Remove(old.elem)
		r.residentBytes -= old.snap.Info.Bytes
	}
	r.resident[key] = e
	e.elem = r.lru.PushFront(e)
	r.residentBytes += snap.Info.Bytes
	r.mu.Unlock()
	return ScanStats{Models: 1, Versions: 1}, nil
}

// scanModel reads one model directory, returning nil when no valid
// version survives.
func (r *Registry) scanModel(model string, stats *ScanStats) *catModel {
	dir := filepath.Join(r.cfg.Root, model)
	entries, err := os.ReadDir(dir)
	if err != nil {
		stats.Skipped++
		return nil
	}
	cm := &catModel{versions: map[string]*catVersion{}}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		version := e.Name()
		if version[0] == '.' {
			// A crashed publish's temp directory: invisible, counted, and
			// deliberately left in place — an external publisher may still
			// be writing into it, so a rescan must not delete it.
			stats.TempDirs++
			continue
		}
		if ValidateName(version) != nil {
			stats.Skipped++
			continue
		}
		vdir := filepath.Join(dir, version)
		man, err := readVersion(model, version, vdir)
		if err != nil {
			stats.Skipped++
			continue
		}
		cm.versions[version] = &catVersion{manifest: man, path: filepath.Join(vdir, snapshotName)}
		cm.order = append(cm.order, version)
	}
	if len(cm.order) == 0 {
		return nil
	}
	sort.Slice(cm.order, func(i, j int) bool {
		a, b := cm.versions[cm.order[i]].manifest, cm.versions[cm.order[j]].manifest
		if !a.CreatedAt.Equal(b.CreatedAt) {
			return a.CreatedAt.Before(b.CreatedAt)
		}
		return a.Version < b.Version
	})
	return cm
}

// readVersion validates one version directory: a decodable manifest
// that agrees with its location, next to a snapshot of the manifest's
// exact size. The content hash is deferred to load time, where the
// bytes are read anyway.
func readVersion(model, version, dir string) (Manifest, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return Manifest{}, err
	}
	man, err := DecodeManifest(f)
	closeErr := f.Close()
	if err != nil {
		return Manifest{}, err
	}
	if closeErr != nil {
		return Manifest{}, closeErr
	}
	if man.Model != model || man.Version != version {
		return Manifest{}, fmt.Errorf("registry: manifest names %s/%s but sits in %s/%s",
			man.Model, man.Version, model, version)
	}
	fi, err := os.Stat(filepath.Join(dir, snapshotName))
	if err != nil {
		return Manifest{}, err
	}
	if fi.Size() != man.Bytes {
		return Manifest{}, fmt.Errorf("registry: snapshot is %d bytes, manifest says %d", fi.Size(), man.Bytes)
	}
	return man, nil
}

// Models renders the catalog for /v1/models: models sorted by name,
// versions oldest-first with the latest flagged, resident status from
// the live cache.
func (r *Registry) Models() []ModelStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.catalog))
	for name := range r.catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModelStatus, 0, len(names))
	for _, name := range names {
		cm := r.catalog[name]
		ms := ModelStatus{Name: name, Versions: make([]VersionStatus, 0, len(cm.order))}
		for i, v := range cm.order {
			cv := cm.versions[v]
			man := cv.manifest
			vs := VersionStatus{
				Version:       v,
				SHA256:        man.SHA256,
				Bytes:         man.Bytes,
				FeatureMethod: man.FeatureMethod,
				CreatedAt:     man.CreatedAt,
				SnapshotPath:  cv.path,
				Latest:        i == len(cm.order)-1,
			}
			if e := r.resident[resKey{name, v}]; e != nil && e.elem != nil {
				loaded := e.snap.LoadedAt
				vs.Resident, vs.LoadedAt, vs.Categories = true, &loaded, e.snap.Model.Categories()
			}
			ms.Versions = append(ms.Versions, vs)
		}
		out = append(out, ms)
	}
	return out
}

// Default resolves the model an empty request name maps to: the
// configured default when present in the catalog, else the sole
// published model. ok is false when neither applies.
func (r *Registry) Default() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, err := r.defaultLocked()
	return name, err == nil
}

func (r *Registry) defaultLocked() (string, error) {
	if r.cfg.Default != "" {
		if r.catalog[r.cfg.Default] == nil {
			return "", fmt.Errorf("%w %q (configured default)", ErrUnknownModel, r.cfg.Default)
		}
		return r.cfg.Default, nil
	}
	if len(r.catalog) == 1 {
		for name := range r.catalog {
			return name, nil
		}
	}
	return "", ErrModelRequired
}

// DefaultVersionInfo reports the default model's latest published
// version and snapshot hash without loading anything — the health
// endpoint's cheap identity answer. ok is false when no default model
// resolves.
func (r *Registry) DefaultVersionInfo() (model, version, sha256 string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name, err := r.defaultLocked()
	if err != nil {
		return "", "", "", false
	}
	cm := r.catalog[name]
	v := cm.latest()
	return name, v, cm.versions[v].manifest.SHA256, true
}

// Acquire resolves (model, version) — both optional: an empty model
// takes the default, an empty version the model's latest — and returns
// the resident snapshot, loading it if cold. Concurrent cold requests
// for the same version coalesce into exactly one load (single-flight);
// waiters block until the load finishes or ctx is done. A successful
// Acquire marks the version most-recently-used and may evict the LRU
// tail past the configured resident bounds.
func (r *Registry) Acquire(ctx context.Context, model, version string) (*Snapshot, error) {
	r.mu.Lock()
	if model == "" {
		var err error
		if model, err = r.defaultLocked(); err != nil {
			r.mu.Unlock()
			return nil, err
		}
	}
	cm := r.catalog[model]
	if cm == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, model)
	}
	if version == "" {
		version = cm.latest()
	}
	cv := cm.versions[version]
	if cv == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w %q of model %q", ErrUnknownVersion, version, model)
	}
	key := resKey{model, version}
	if e := r.resident[key]; e != nil {
		if e.elem != nil {
			// Resident: touch and return without blocking.
			r.lru.MoveToFront(e.elem)
			r.met.hits.Inc()
			r.mu.Unlock()
			return e.snap, nil
		}
		// Someone else is loading this exact version: wait for them.
		r.met.coalesced.Inc()
		r.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		return e.snap, nil
	}
	// Cold: claim the single-flight slot, then load outside the lock.
	e := &resEntry{key: key, done: make(chan struct{})}
	r.resident[key] = e
	r.met.misses.Inc()
	r.mu.Unlock()

	snap, err := r.load(model, version, cv)
	r.mu.Lock()
	if err != nil {
		// Remove the slot before releasing waiters so the resident map
		// never holds a completed failure — the next Acquire retries.
		delete(r.resident, key)
		r.met.loadErrors.Inc()
		r.mu.Unlock()
		e.err = err
		close(e.done)
		return nil, err
	}
	e.snap = snap
	e.elem = r.lru.PushFront(e)
	r.residentBytes += snap.Info.Bytes
	r.enforceBoundsLocked()
	r.mu.Unlock()
	close(e.done)
	return snap, nil
}

// load reads, verifies and prepares one published version: open plus
// the manifest's integrity checks. Runs without the registry lock —
// loading is the slow path and must not block hits.
func (r *Registry) load(model, version string, cv *catVersion) (*Snapshot, error) {
	man := cv.manifest
	snap, err := r.open(model, version, cv.path)
	if err != nil {
		return nil, err
	}
	info := snap.Info
	if info.SHA256 != man.SHA256 {
		return nil, fmt.Errorf("registry: %s/%s snapshot bytes (sha256 %s) do not match the manifest (%s)",
			model, version, info.SHA256, man.SHA256)
	}
	if info.Bytes != man.Bytes {
		return nil, fmt.Errorf("registry: %s/%s snapshot is %d bytes, manifest says %d",
			model, version, info.Bytes, man.Bytes)
	}
	if got := string(snap.Model.FeatureMethod()); got != man.FeatureMethod {
		return nil, fmt.Errorf("registry: %s/%s was trained with feature method %q, manifest says %q",
			model, version, got, man.FeatureMethod)
	}
	snap.Manifest = man
	return snap, nil
}

// open loads one snapshot file and checks it against the required
// feature method before anyone can acquire it.
func (r *Registry) open(model, version, path string) (*Snapshot, error) {
	r.met.loads.Inc()
	m, info, err := r.loader(path)
	if err != nil {
		return nil, fmt.Errorf("registry: load %s/%s: %w", model, version, err)
	}
	if r.cfg.Method != "" && m.FeatureMethod() != r.cfg.Method {
		return nil, fmt.Errorf("registry: %s/%s feature method %q does not satisfy the required %q",
			model, version, m.FeatureMethod(), r.cfg.Method)
	}
	m.AttachTelemetry(r.cfg.Metrics)
	//lint:ignore determinism resident-since metadata: reported on /v1/models, never reaches model state
	now := time.Now()
	return &Snapshot{Model: m, Info: info, Name: model, Version: version, LoadedAt: now}, nil
}

// enforceBoundsLocked evicts LRU-tail entries until the resident cache
// fits both configured bounds, always keeping at least one entry so a
// single oversized model can still serve.
func (r *Registry) enforceBoundsLocked() {
	for r.lru.Len() > 1 &&
		((r.cfg.MaxResident > 0 && r.lru.Len() > r.cfg.MaxResident) ||
			(r.cfg.MaxResidentBytes > 0 && r.residentBytes > r.cfg.MaxResidentBytes)) {
		r.evictLocked(r.lru.Back().Value.(*resEntry))
	}
}

// evictLocked forgets one resident entry. The snapshot itself stays
// valid for anyone who already pinned it; only the registry's reference
// (and its byte accounting) goes away.
func (r *Registry) evictLocked(e *resEntry) {
	r.lru.Remove(e.elem)
	delete(r.resident, e.key)
	r.residentBytes -= e.snap.Info.Bytes
	r.met.evictions.Inc()
}

// ResidentCount reports how many models are currently loaded
// (diagnostics; the authoritative view is Models' Resident flags).
func (r *Registry) ResidentCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}
