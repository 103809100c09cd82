package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestStageRecorderObservations(t *testing.T) {
	reg := NewRegistry()
	rec := NewStageRecorder(reg, "serve.stage", nil, 0)

	tr := rec.Begin()
	tr.Observe(StageDecode, 2*time.Millisecond)
	tr.Observe(StageQueue, 1*time.Millisecond)
	tr.Observe(StageClassify, 8*time.Millisecond)
	tr.Observe(StageWrite, 1*time.Millisecond)
	tr.Finish("req-1", 1, "hash", 200)

	// Worker-side direct observation shares the same histograms.
	rec.Observe(StageClassify, 4*time.Millisecond)

	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"serve.stage.decode.seconds":   1,
		"serve.stage.queue.seconds":    1,
		"serve.stage.classify.seconds": 2,
		"serve.stage.write.seconds":    1,
	} {
		if got := s.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
}

func TestStageRecorderSampling(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	reg := NewRegistry()
	ew := NewEventWriter(&lockedWriter{w: &buf, mu: &mu})
	rec := NewStageRecorder(reg, "s", ew, 3)

	const n = 30
	for i := 0; i < n; i++ {
		tr := rec.Begin()
		tr.Observe(StageDecode, time.Millisecond)
		tr.Record(StageQueue, 2*time.Millisecond)
		tr.Finish("req", 4, "abc", 200)
	}
	var records []RequestTraceRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r RequestTraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		records = append(records, r)
	}
	if len(records) != n/3 {
		t.Fatalf("sampled %d of %d requests at rate 3, want %d", len(records), n, n/3)
	}
	r := records[0]
	if r.Kind != "request" || r.RequestID != "req" || r.Batch != 4 || r.ModelHash != "abc" || r.Status != 200 {
		t.Errorf("trace record fields = %+v", r)
	}
	if r.DecodeUS != 1000 {
		t.Errorf("decode_us = %v, want 1000", r.DecodeUS)
	}
	// Record() stores for the trace line without re-observing.
	if r.QueueUS != 2000 {
		t.Errorf("queue_us = %v, want 2000", r.QueueUS)
	}
	if r.TotalUS != 3000 {
		t.Errorf("total_us = %v, want 3000", r.TotalUS)
	}
	if got := reg.Snapshot().Histograms["s.queue.seconds"].Count; got != 0 {
		t.Errorf("Record() observed the histogram (%d), want trace-only", got)
	}
}

// lockedWriter makes a bytes.Buffer safe for the concurrent test below.
type lockedWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestStageRecorderConcurrent hammers one recorder from many goroutines
// under -race: every histogram count must balance, and every sampled
// trace line must be one intact JSON document (the EventWriter
// serialises lines).
func TestStageRecorderConcurrent(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	reg := NewRegistry()
	ew := NewEventWriter(&lockedWriter{w: &buf, mu: &mu})
	rec := NewStageRecorder(reg, "c", ew, 5)

	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := rec.Begin()
				tr.Observe(StageDecode, time.Microsecond)
				tr.Observe(StageClassify, 2*time.Microsecond)
				rec.Observe(StageQueue, time.Microsecond)
				tr.Finish("req", 1, "h", 200)
			}
		}()
	}
	wg.Wait()

	total := int64(workers * perWorker)
	s := reg.Snapshot()
	for _, name := range []string{"c.decode.seconds", "c.classify.seconds", "c.queue.seconds"} {
		if got := s.Histograms[name].Count; got != total {
			t.Errorf("%s count = %d, want %d", name, got, total)
		}
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r RequestTraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("interleaved/corrupt trace line: %v", err)
		}
		lines++
	}
	if want := int(total / 5); lines != want {
		t.Errorf("sampled %d lines, want %d", lines, want)
	}
}

// TestStageTraceZeroAllocWhenNotSampling is the sampling-off gate: a
// full begin→observe→finish request trace must not allocate when no
// request is sampled. `make telemetry-smoke` runs it.
func TestStageTraceZeroAllocWhenNotSampling(t *testing.T) {
	reg := NewRegistry()
	rec := NewStageRecorder(reg, "z", nil, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr := rec.Begin()
		tr.Observe(StageDecode, time.Millisecond)
		tr.Record(StageQueue, time.Millisecond)
		tr.Observe(StageClassify, time.Millisecond)
		tr.Observe(StageWrite, time.Millisecond)
		rec.Observe(StageQueue, time.Millisecond)
		tr.Finish("req", 1, "hash", 200)
	})
	if allocs != 0 {
		t.Fatalf("unsampled request trace allocates %.1f/op, want 0", allocs)
	}

	// Sampling enabled but this request not selected: still zero.
	var buf bytes.Buffer
	rec2 := NewStageRecorder(reg, "z2", NewEventWriter(&buf), 1<<30)
	allocs = testing.AllocsPerRun(1000, func() {
		tr := rec2.Begin()
		tr.Observe(StageDecode, time.Millisecond)
		tr.Finish("req", 1, "hash", 200)
	})
	if allocs != 0 {
		t.Fatalf("unselected request trace allocates %.1f/op, want 0", allocs)
	}

	// Nil recorder: the disabled path is free too.
	var nilRec *StageRecorder
	allocs = testing.AllocsPerRun(1000, func() {
		tr := nilRec.Begin()
		tr.Observe(StageDecode, time.Millisecond)
		nilRec.Observe(StageQueue, time.Millisecond)
		tr.Finish("req", 1, "hash", 200)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f/op, want 0", allocs)
	}
}

func TestStageStringCoversAllStages(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "unknown" || seen[name] {
			t.Errorf("stage %d has bad or duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range stage should stringify as unknown")
	}
}
