// Package serve is the long-lived serving layer of the temporal
// document classifier: a dependency-free net/http JSON API over one or
// many trained, persisted core.Models.
//
// Three design rules shape it:
//
//   - One pinned snapshot per request. Every request acquires its
//     *registry.Snapshot exactly once and scores its whole batch with
//     it, so hot-reloads and cache evictions can land at any moment
//     without a response ever mixing two models. Responses embed the
//     snapshot's SHA-256 to make that provable end to end.
//   - Bounded concurrency with load shedding. Scoring runs on a fixed
//     worker pool behind a bounded queue; when the queue is full the
//     server answers 503 with Retry-After instead of stacking
//     goroutines, and per-request deadlines turn stuck work into 504s.
//   - The scoring hot path allocates nothing per document beyond the
//     response itself: machines come from the model's pool, encodings
//     from its cache, predictions land in one per-job buffer.
//
// Every server serves an internal/registry catalog. Config.ModelsDir
// is a registry directory: classify requests may name a "model" (and
// "version"), and cold models load lazily under single-flight into an
// LRU of resident models. Config.ModelPath is one snapshot file, which
// the registry serves as the one-entry catalog default/current, loaded
// at start. Either way SIGHUP and POST /v1/reload rescan: a directory
// is re-read, a file reloaded and swapped in atomically.
//
// Endpoints:
//
//	POST /v1/classify  single {"text": ...} or batch {"documents": [...]},
//	                   optional "model" and "version" tenant selection
//	GET  /v1/healthz   liveness plus the default model hash
//	GET  /v1/models    registry catalog with resident/cold status
//	GET  /v1/modelz    default model hash, the catalog and a telemetry
//	                   snapshot
//	GET  /v1/statz     per-stage latency percentiles, throughput, error
//	                   rates, per-model request counts
//	POST /v1/reload    rescan the registry (re-read the snapshot file)
//
// Every request carries an id (client-supplied X-Request-ID or
// generated), echoed on the response; a stage recorder splits each
// classify request into decode → queue-wait → classify → write and can
// sample requests into a JSONL trace (Config.Trace). /v1/statz turns
// the stage histograms into interpolated p50/p90/p95/p99 — the
// server-side half of the `tdc loadgen` benchmark harness.
package serve

import (
	"net/http"
	"time"

	"temporaldoc/internal/registry"
	"temporaldoc/internal/telemetry"
	"temporaldoc/internal/textproc"
)

// Server is one classification service instance. Create with New,
// mount via Handler, stop with Close.
type Server struct {
	cfg      Config
	registry *registry.Registry
	pool     *pool
	pre      *textproc.Preprocessor
	mux      *http.ServeMux
	handler  http.Handler
	stages   *telemetry.StageRecorder
	stats    *modelStats
	met      serverMetrics
	// started anchors /v1/statz uptime and throughput; reporting only.
	started time.Time
}

// serverMetrics holds the pre-resolved handles of the request path.
type serverMetrics struct {
	timeouts *telemetry.Counter
	panics   *telemetry.Counter
}

// New opens the model registry (loading the snapshot file when
// Config.ModelPath names one) and assembles a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	root := cfg.ModelPath + cfg.ModelsDir // setDefaults admits exactly one
	reg, err := registry.Open(registry.Config{
		Root:             root,
		Default:          cfg.DefaultModel,
		MaxResident:      cfg.Resident,
		MaxResidentBytes: cfg.ResidentBytes,
		Method:           cfg.Method,
		Metrics:          cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		registry: reg,
		pre:      textproc.NewPreprocessor(textproc.Options{}),
		stages:   telemetry.NewStageRecorder(cfg.Metrics, "serve.stage", cfg.Trace, cfg.TraceSampleEvery),
		stats:    newModelStats(),
		met: serverMetrics{
			timeouts: cfg.Metrics.Counter("serve.timeouts"),
			panics:   cfg.Metrics.Counter("serve.panics"),
		},
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, cfg.Metrics, s.stages, s.stats)
	//lint:ignore determinism serving metadata: the start stamp only feeds /v1/statz uptime, never model state
	s.started = time.Now()
	s.mux = http.NewServeMux()
	// recoverPanics sits inside InstrumentHandler so a recovered 500
	// still lands in the per-route status counters and latency histogram.
	mount := func(route string, h http.HandlerFunc) http.Handler {
		return cfg.Metrics.InstrumentHandler(route, s.recoverPanics(h))
	}
	s.mux.Handle("/v1/classify", mount("classify", s.handleClassify))
	s.mux.Handle("/v1/healthz", mount("healthz", s.handleHealthz))
	s.mux.Handle("/v1/models", mount("models", s.handleModels))
	s.mux.Handle("/v1/modelz", mount("modelz", s.handleModelz))
	s.mux.Handle("/v1/statz", mount("statz", s.handleStatz))
	s.mux.Handle("/v1/reload", mount("reload", s.handleReload))
	s.handler = withRequestID(s.mux)
	versions := 0
	models := reg.Models()
	for _, m := range models {
		versions += len(m.Versions)
	}
	_, _, hash, _ := reg.DefaultVersionInfo()
	cfg.Log.Info("models opened", "root", root, "models", len(models), "versions", versions,
		"default_sha256", hash, "resident_limit", cfg.Resident, "workers", cfg.Workers, "queue", cfg.QueueDepth)
	return s, nil
}

// Handler returns the server's HTTP handler (all /v1/ endpoints,
// wrapped in the request-id middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Transport limits of HTTPServer (DESIGN.md §9). They bound what a slow
// or hostile client can hold before the worker pool's shedding ever
// sees a request: a connection trickling its headers is closed after
// readHeaderTimeout, a whole request must arrive within readTimeout,
// and an idle keep-alive connection is closed after idleTimeout, far
// above any gap on a busy keep-alive connection.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
	maxHeaderBytes    = 64 << 10
)

// HTTPServer returns an http.Server for Handler with the transport
// limits above; the caller owns Serve and Shutdown.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// ReloadResponse is the POST /v1/reload (and SIGHUP) result: what the
// rescan accepted and skipped, plus the default model's snapshot hash
// before and after it. Changed is false when a snapshot-file server
// re-read identical bytes.
type ReloadResponse struct {
	registry.ScanStats
	ModelHash    string `json:"model_hash"`
	PreviousHash string `json:"previous_hash"`
	Changed      bool   `json:"changed"`
}

// Reload rescans the registry — for a snapshot-file server, re-reads
// and swaps in the file. On error the previous catalog and resident
// snapshots keep serving. Wired to SIGHUP and POST /v1/reload.
func (s *Server) Reload() (ReloadResponse, error) {
	_, _, prev, _ := s.registry.DefaultVersionInfo()
	stats, err := s.registry.Scan()
	if err != nil {
		return ReloadResponse{}, err
	}
	_, _, cur, _ := s.registry.DefaultVersionInfo()
	return ReloadResponse{ScanStats: stats, ModelHash: cur, PreviousHash: prev, Changed: cur != prev}, nil
}

// Close drains the worker pool. Call after the HTTP listener has shut
// down; queued jobs finish, new submissions panic — the HTTP layer
// must already be stopped.
func (s *Server) Close() { s.pool.close() }
