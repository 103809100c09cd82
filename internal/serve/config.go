package serve

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"temporaldoc/internal/featsel"
	"temporaldoc/internal/telemetry"
)

// Config parameterises one classification server. The zero value of
// every limit takes a serving-safe default; exactly one of ModelPath
// and ModelsDir is required.
type Config struct {
	// ModelPath is a persisted snapshot (core.Model.Save output). The
	// server loads it at start, serves it as the one-entry registry
	// default/current and re-reads it on every reload. Mutually
	// exclusive with ModelsDir.
	ModelPath string
	// ModelsDir is a model registry directory
	// (<dir>/<model>/<version>/snapshot.bin + manifest.json): classify
	// requests may name a model and version, and reloads rescan it.
	// Mutually exclusive with ModelPath.
	ModelsDir string
	// DefaultModel is the model an unnamed classify request resolves to
	// under ModelsDir. When empty, a sole published model is the
	// implicit default; with several models, unnamed requests fail 400.
	DefaultModel string
	// Resident bounds how many models stay loaded at once (default 4,
	// 0 picks the default; use ResidentBytes for a size-based bound
	// instead). Least-recently-used models are evicted from the cache —
	// never out from under an in-flight request, which keeps its pinned
	// snapshot.
	Resident int
	// ResidentBytes, when positive, bounds the summed snapshot sizes of
	// resident models instead of (or in addition to) the count.
	ResidentBytes int64
	// Method, when non-empty, requires the snapshot header to record
	// exactly this feature-selection method; loads (initial and reload)
	// of a mismatching snapshot fail. Empty accepts whatever the
	// snapshot records.
	Method featsel.Method
	// Workers bounds concurrent classification jobs. Default
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs.
	// When the queue is full new requests are rejected with 503 and a
	// Retry-After header instead of piling up goroutines. Default 64.
	QueueDepth int
	// MaxBatch bounds the documents of one batch request. Default 64.
	MaxBatch int
	// MaxBodyBytes bounds a request body; larger bodies get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's total time in the server
	// (queue wait + scoring); exceeding it returns 504. Default 10s.
	RequestTimeout time.Duration
	// RetryAfter is the back-off hint advertised on 503 responses.
	// Default 1s.
	RetryAfter time.Duration
	// Metrics, when non-nil, receives the serving metrics (request
	// counts, latency, queue depth, reloads) and is re-attached to
	// every loaded model so scoring telemetry keeps flowing across
	// reloads. A nil registry costs nothing.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives one JSONL RequestTraceRecord per
	// sampled request (stage durations, request id, batch size, model
	// hash, status). Sampling is off unless TraceSampleEvery is also
	// set; the unsampled request path allocates nothing.
	Trace *telemetry.EventWriter
	// TraceSampleEvery samples every Nth classify request into Trace.
	// 0 (the default) disables request tracing entirely.
	TraceSampleEvery int
	// Log receives structured serving events. Nil discards them.
	Log *slog.Logger
}

func (c *Config) setDefaults() error {
	if (c.ModelPath == "") == (c.ModelsDir == "") {
		return fmt.Errorf("serve: exactly one of Config.ModelPath and Config.ModelsDir is required")
	}
	if c.ModelPath != "" && (c.DefaultModel != "" || c.Resident != 0 || c.ResidentBytes != 0) {
		return fmt.Errorf("serve: DefaultModel/Resident/ResidentBytes need Config.ModelsDir")
	}
	if c.Resident < 0 || c.ResidentBytes < 0 {
		return fmt.Errorf("serve: Resident and ResidentBytes must be >= 0")
	}
	if c.Resident == 0 {
		c.Resident = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.TraceSampleEvery < 0 {
		return fmt.Errorf("serve: TraceSampleEvery must be >= 0, got %d", c.TraceSampleEvery)
	}
	if c.Log == nil {
		c.Log = slog.New(discardHandler{})
	}
	return nil
}

// discardHandler is a no-op slog.Handler (slog.DiscardHandler arrives
// in go1.24; this repo supports 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
