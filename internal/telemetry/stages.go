package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage names one segment of a request's lifetime inside the server.
// The set is fixed so the recorder can keep its histograms in a flat
// array and a per-request trace in a stack value — no map, no
// allocation on the request path.
type Stage uint8

const (
	// StageDecode is request parsing: body read, JSON decode,
	// validation, tokenisation.
	StageDecode Stage = iota
	// StageQueue is the time a job waits in the bounded queue before a
	// worker dequeues it.
	StageQueue
	// StageClassify is scoring: encode + per-category rule execution
	// for every document of the job.
	StageClassify
	// StageWrite is response rendering: building the response value and
	// encoding it onto the wire.
	StageWrite
	// NumStages is the number of stages; also the implicit "all stages"
	// bound for arrays indexed by Stage.
	NumStages
)

// String returns the stage's metric-name segment.
func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageQueue:
		return "queue"
	case StageClassify:
		return "classify"
	case StageWrite:
		return "write"
	default:
		return "unknown"
	}
}

// StageRecorder feeds per-stage latency histograms and, at a
// configurable sample rate, per-request JSONL trace records. It is the
// serving layer's request-lifecycle instrument: every request observes
// its stage durations (cheap: one histogram Observe per stage, no
// allocation), and every sampleEvery-th request additionally emits a
// RequestTraceRecord through the EventWriter (the sampled path may
// allocate — that is the deal sampling buys).
//
// A nil *StageRecorder is a no-op, matching the package's nil-safe
// default: Begin returns an inert RequestTrace whose methods do
// nothing.
type StageRecorder struct {
	hists  [NumStages]*Histogram
	events *EventWriter
	every  uint64
	seq    atomic.Uint64
}

// NewStageRecorder resolves one histogram per stage under
// "<prefix>.<stage>.seconds" in reg (nil reg → nil histograms, still
// usable, observations dropped). events receives sampled trace records;
// sampleEvery N > 0 samples every Nth request, N <= 0 (or a nil events
// writer) disables sampling entirely.
func NewStageRecorder(reg *Registry, prefix string, events *EventWriter, sampleEvery int) *StageRecorder {
	r := &StageRecorder{events: events}
	if sampleEvery > 0 && events != nil {
		r.every = uint64(sampleEvery)
	}
	for s := Stage(0); s < NumStages; s++ {
		r.hists[s] = reg.Histogram(prefix+"."+s.String()+".seconds", LatencyBuckets())
	}
	return r
}

// Begin starts one request's trace. The returned RequestTrace is a
// plain value the caller keeps on its stack — beginning, observing and
// finishing a trace allocates nothing when the request is not sampled.
func (r *StageRecorder) Begin() RequestTrace {
	if r == nil {
		return RequestTrace{}
	}
	sampled := false
	if r.every > 0 {
		sampled = r.seq.Add(1)%r.every == 0
	}
	return RequestTrace{rec: r, sampled: sampled}
}

// Observe records one stage's duration into the stage histogram without
// a RequestTrace — for code paths (a worker goroutine) that measure a
// stage but do not own the request's trace value. No-op on nil.
//
//tdlint:hotpath
func (r *StageRecorder) Observe(s Stage, d time.Duration) {
	if r == nil || s >= NumStages {
		return
	}
	r.hists[s].Observe(d.Seconds())
}

// RequestTrace accumulates one request's stage durations. It is a value
// type: create with StageRecorder.Begin, keep on the stack, finish with
// Finish. The zero RequestTrace is a no-op.
type RequestTrace struct {
	rec     *StageRecorder
	sampled bool
	durs    [NumStages]time.Duration
}

// Observe records one stage's duration: into the stage histogram and
// into the trace's own record. Observing the same stage twice keeps the
// last duration in the record (both land in the histogram). No-op on a
// zero trace.
//
//tdlint:hotpath
func (t *RequestTrace) Observe(s Stage, d time.Duration) {
	if t.rec == nil || s >= NumStages {
		return
	}
	t.durs[s] = d
	t.rec.hists[s].Observe(d.Seconds())
}

// Record stores an externally measured stage duration in the trace's
// record only, without re-observing the histogram — for durations that
// were already observed via StageRecorder.Observe on another goroutine.
//
//tdlint:hotpath
func (t *RequestTrace) Record(s Stage, d time.Duration) {
	if t.rec == nil || s >= NumStages {
		return
	}
	t.durs[s] = d
}

// RequestTraceRecord is the JSONL document a sampled request emits:
// one line per request, durations in microseconds (the natural grain of
// a classify request — big enough to avoid float noise, small enough to
// read).
type RequestTraceRecord struct {
	Kind       string  `json:"kind"` // always "request"
	RequestID  string  `json:"request_id"`
	Status     int     `json:"status"`
	Batch      int     `json:"batch"`
	ModelHash  string  `json:"model_hash,omitempty"`
	DecodeUS   float64 `json:"decode_us"`
	QueueUS    float64 `json:"queue_us"`
	ClassifyUS float64 `json:"classify_us"`
	WriteUS    float64 `json:"write_us"`
	TotalUS    float64 `json:"total_us"`
}

// Finish completes the trace: if this request was sampled, a
// RequestTraceRecord goes out through the EventWriter. Unsampled (and
// zero) traces return immediately without touching the writer.
func (t *RequestTrace) Finish(requestID string, batch int, modelHash string, status int) {
	if t.rec == nil || !t.sampled || t.rec.events == nil {
		return
	}
	us := func(s Stage) float64 { return float64(t.durs[s]) / float64(time.Microsecond) }
	var total time.Duration
	for s := Stage(0); s < NumStages; s++ {
		total += t.durs[s]
	}
	// The write error has nowhere actionable to go from a sampled hot
	// path; the EventWriter's sink is responsible for its own health.
	_ = t.rec.events.Emit(RequestTraceRecord{
		Kind:       "request",
		RequestID:  requestID,
		Status:     status,
		Batch:      batch,
		ModelHash:  modelHash,
		DecodeUS:   us(StageDecode),
		QueueUS:    us(StageQueue),
		ClassifyUS: us(StageClassify),
		WriteUS:    us(StageWrite),
		TotalUS:    float64(total) / float64(time.Microsecond),
	})
}
