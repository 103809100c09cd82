package serve

import (
	"context"
	"errors"
	"time"

	"sync"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/registry"
	"temporaldoc/internal/telemetry"
)

// ErrQueueFull is returned by submit when the bounded queue cannot
// accept another job; the HTTP layer maps it to 503 + Retry-After.
var ErrQueueFull = errors.New("serve: classification queue full")

// job is one enqueued classification unit. The handler pins snap
// before submitting (so cold registry loads happen on the request
// goroutine, never on a scoring worker); the worker fills results, err
// and the stage durations, then closes done. The handler reads the
// worker-owned fields only after done is closed (or abandons the job
// entirely on timeout), so the two goroutines never touch the same
// field concurrently.
type job struct {
	ctx  context.Context
	docs []corpus.Document
	// snap is the model snapshot this job is pinned to, set by the
	// handler before submit and never changed after.
	snap *registry.Snapshot
	// enqueued is stamped by submit; the worker turns it into the
	// queue-wait stage duration on dequeue.
	enqueued time.Time

	results [][]core.Prediction
	err     error
	done    chan struct{}
	// queueWait and classifyDur are the worker-measured stage durations,
	// copied into the handler's request trace after done closes.
	queueWait   time.Duration
	classifyDur time.Duration
}

// pool is the bounded worker pool classification runs on. A fixed
// worker count keeps scoring concurrency at the configured level no
// matter how many HTTP connections arrive; the buffered queue absorbs
// bursts and rejects (rather than buffers) overload beyond it.
type pool struct {
	queue  chan *job
	wg     sync.WaitGroup
	stages *telemetry.StageRecorder
	stats  *modelStats

	depth    *telemetry.Gauge
	rejected *telemetry.Counter
	jobs     *telemetry.Counter
	docs     *telemetry.Counter
}

func newPool(workers, depth int, reg *telemetry.Registry, stages *telemetry.StageRecorder, stats *modelStats) *pool {
	p := &pool{
		queue:    make(chan *job, depth),
		stages:   stages,
		stats:    stats,
		depth:    reg.Gauge("serve.queue.depth"),
		rejected: reg.Counter("serve.queue.rejected"),
		jobs:     reg.Counter("serve.jobs"),
		docs:     reg.Counter("serve.docs"),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// submit enqueues a job without blocking; ErrQueueFull means the
// caller should shed the request.
func (p *pool) submit(j *job) error {
	//lint:ignore determinism queue-wait telemetry: the stamp only ever feeds time.Since in the worker, never model state
	j.enqueued = time.Now()
	select {
	case p.queue <- j:
		p.depth.Set(float64(len(p.queue)))
		return nil
	default:
		p.rejected.Inc()
		return ErrQueueFull
	}
}

// close stops accepting jobs and waits for queued ones to finish.
func (p *pool) close() {
	close(p.queue)
	p.wg.Wait()
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.depth.Set(float64(len(p.queue)))
		// Queue wait is measured here, not in the handler: the handler
		// may have stopped listening (504) while the job still holds a
		// queue slot, and the wait ends only when a worker picks it up.
		j.queueWait = time.Since(j.enqueued)
		p.stages.Observe(telemetry.StageQueue, j.queueWait)
		start := time.Now()
		p.run(j)
		j.classifyDur = time.Since(start)
		p.stages.Observe(telemetry.StageClassify, j.classifyDur)
		close(j.done)
	}
}

// run scores every document of the job with its one pinned model
// snapshot. The handler resolved snap before submitting: a concurrent
// reload or cache eviction affects later jobs but can never mix models
// inside this one.
func (p *pool) run(j *job) {
	if err := j.ctx.Err(); err != nil {
		j.err = err // expired while queued; skip the scoring work
		return
	}
	snap := j.snap
	ncats := len(snap.Model.Categories())
	j.results = make([][]core.Prediction, 0, len(j.docs))
	buf := make([]core.Prediction, 0, ncats*len(j.docs))
	for i := range j.docs {
		if err := j.ctx.Err(); err != nil {
			j.err = err
			return
		}
		preds, err := snap.Model.ClassifyDoc(&j.docs[i], buf[len(buf):len(buf):len(buf)+ncats])
		if err != nil {
			j.err = err
			return
		}
		buf = buf[:len(buf)+len(preds)]
		j.results = append(j.results, preds)
	}
	p.jobs.Inc()
	p.docs.Add(int64(len(j.docs)))
	p.stats.add(snap.Name, len(j.docs))
}
