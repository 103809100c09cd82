package core

import (
	"time"

	"temporaldoc/internal/lgp"
	"temporaldoc/internal/som"
	"temporaldoc/internal/telemetry"
)

// EventKind discriminates TrainEvents.
type EventKind string

// Event kinds, in roughly the order they occur during Train.
const (
	// EventSOMEpoch fires after each SOM training epoch of either
	// encoder level (Level "char" or "word"; Category set for "word").
	EventSOMEpoch EventKind = "som_epoch"
	// EventEncoderReady fires once when the hierarchical encoder is
	// trained (the old Progress("encoder", "") moment).
	EventEncoderReady EventKind = "encoder_ready"
	// EventGeneration fires after every GP tournament of a category's
	// evolution (the paper calls tournaments "generations").
	EventGeneration EventKind = "generation"
	// EventCategoryTrained fires when one category's classifier is ready
	// (the old Progress("category", name) moment).
	EventCategoryTrained EventKind = "category_trained"
)

// TrainEvent is one structured training-progress event. Only the fields
// relevant to the Kind are set; the zero values of the rest are omitted
// from JSON, so JSONL traces stay compact. Events are emitted from the
// goroutine doing the work — per-category trainers run concurrently, so
// observers must be safe for concurrent use (as Progress always had to
// be).
type TrainEvent struct {
	Kind     EventKind `json:"kind"`
	Category string    `json:"category,omitempty"`

	// SOM-epoch fields (Kind == EventSOMEpoch).
	Level        string  `json:"level,omitempty"` // "char" or "word"
	Epoch        int     `json:"epoch,omitempty"`
	AWC          float64 `json:"awc,omitempty"`
	QuantError   float64 `json:"quant_error,omitempty"`
	Radius       float64 `json:"radius,omitempty"`
	LearningRate float64 `json:"learning_rate,omitempty"`

	// Generation fields (Kind == EventGeneration). Restart also applies
	// to EventCategoryTrained, where it names the winning restart.
	Restart     int     `json:"restart,omitempty"`
	Tournament  int     `json:"tournament,omitempty"`
	BestFitness float64 `json:"best_fitness,omitempty"`
	MeanFitness float64 `json:"mean_fitness,omitempty"`
	MeanLen     float64 `json:"mean_len,omitempty"`
	PageSize    int     `json:"page_size,omitempty"`
	SubsetSize  int     `json:"subset_size,omitempty"`

	// Category-trained fields (Kind == EventCategoryTrained).
	Fitness   float64 `json:"fitness,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	// Duration is the wall-clock time of the unit of work the event
	// reports (epoch, tournament or whole category training).
	Duration time.Duration `json:"duration_ns,omitempty"`
}

// Observer receives structured TrainEvents as training advances — the
// typed successor of Config.Progress. Implementations must be safe for
// concurrent use: per-category trainers emit from their own goroutines.
// Observers are diagnostics-only; nothing they do can alter training.
type Observer interface {
	OnTrainEvent(TrainEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(TrainEvent)

// OnTrainEvent calls f(e).
func (f ObserverFunc) OnTrainEvent(e TrainEvent) { f(e) }

// emit fans one event out to the configured observer and the legacy
// Progress shim. The Progress callback keeps its exact historical
// contract: ("encoder", "") once, then ("category", name) per category.
func (c *Config) emit(e TrainEvent) {
	if c.Observer != nil {
		c.Observer.OnTrainEvent(e)
	}
	if c.Progress != nil {
		switch e.Kind {
		case EventEncoderReady:
			c.Progress("encoder", "")
		case EventCategoryTrained:
			c.Progress("category", e.Category)
		default:
			// Epoch- and tournament-level kinds are deliberately not
			// forwarded: Progress keeps its historical two-milestone
			// contract.
		}
	}
}

// somEpochHook adapts hsom's per-epoch callback into TrainEvents.
func (c *Config) somEpochHook() func(level, category string, s som.EpochStats) {
	if c.Observer == nil {
		return nil
	}
	return func(level, category string, s som.EpochStats) {
		c.emit(TrainEvent{
			Kind:         EventSOMEpoch,
			Category:     category,
			Level:        level,
			Epoch:        s.Epoch,
			AWC:          s.AWC,
			QuantError:   s.QuantError,
			Radius:       s.Radius,
			LearningRate: s.LearningRate,
			Duration:     s.Duration,
		})
	}
}

// gpTraceHook adapts one restart's lgp tournament trace into
// TrainEvents and registry metrics, or returns nil when both sinks are
// disabled (leaving the trainer's untraced fast path).
func (m *Model) gpTraceHook(cat string, restart int) func(lgp.TournamentStats) {
	if m.cfg.Observer == nil && m.cfg.Metrics == nil {
		return nil
	}
	tournaments := m.cfg.Metrics.Counter("lgp.tournaments")
	latency := m.cfg.Metrics.Timer("lgp.tournament.seconds")
	best := m.cfg.Metrics.Gauge("lgp.best_fitness")
	return func(s lgp.TournamentStats) {
		tournaments.Inc()
		latency.Observe(s.Duration)
		best.Set(s.Best)
		m.cfg.emit(TrainEvent{
			Kind:        EventGeneration,
			Category:    cat,
			Restart:     restart,
			Tournament:  s.Tournament,
			BestFitness: s.Best,
			MeanFitness: s.Mean,
			MeanLen:     s.MeanLen,
			PageSize:    s.PageSize,
			SubsetSize:  s.SubsetSize,
			Duration:    s.Duration,
		})
	}
}

// modelMetrics holds the model's pre-resolved runtime metric handles.
// The zero value (nil handles) is the no-op default, so scoring pays a
// nil check — not a map lookup — per metric when telemetry is off.
type modelMetrics struct {
	scoreLat      telemetry.Timer
	classifyLat   telemetry.Timer
	encHit        *telemetry.Counter
	encMiss       *telemetry.Counter
	poolHit       *telemetry.Counter
	poolMiss      *telemetry.Counter
	evaluatedDocs *telemetry.Counter
	streamPushLat telemetry.Timer
	streamWords   *telemetry.Counter
}

func newModelMetrics(reg *telemetry.Registry) modelMetrics {
	if reg == nil {
		return modelMetrics{}
	}
	return modelMetrics{
		scoreLat:      reg.Timer("core.score.seconds"),
		classifyLat:   reg.Timer("core.classify.seconds"),
		encHit:        reg.Counter("core.encode.cache.hits"),
		encMiss:       reg.Counter("core.encode.cache.misses"),
		poolHit:       reg.Counter("core.machine.pool.hits"),
		poolMiss:      reg.Counter("core.machine.pool.misses"),
		evaluatedDocs: reg.Counter("core.evaluate.docs"),
		streamPushLat: reg.Timer("core.stream.push.seconds"),
		streamWords:   reg.Counter("core.stream.words"),
	}
}

// AttachTelemetry points the model's (and its encoder's) runtime metric
// handles at reg; nil detaches. Models reconstructed by Load start
// without telemetry; classification services attach a registry here.
// Not safe to call concurrently with scoring.
func (m *Model) AttachTelemetry(reg *telemetry.Registry) {
	m.cfg.Metrics = reg
	m.met = newModelMetrics(reg)
	if m.encoder != nil {
		m.encoder.AttachTelemetry(reg)
	}
}
