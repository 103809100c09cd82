package main

import (
	"io"
	"testing"
	"time"
)

func ms2d(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// mkSpans builds spans from (parent, start ms, end ms) triples; span i
// gets ID i.
func mkSpans(rows ...[3]int) []span {
	out := make([]span, len(rows))
	for i, r := range rows {
		out[i] = span{ID: i, Parent: r[0], Name: "s", Start: ms2d(r[1]), End: ms2d(r[2])}
	}
	return out
}

func TestSelfTime(t *testing.T) {
	ix := indexSpans(mkSpans(
		[3]int{noParent, 0, 100}, // 0: root
		[3]int{0, 10, 30},        // 1: sequential child
		[3]int{0, 40, 70},        // 2: parallel children 2-4 overlap
		[3]int{0, 50, 80},        // 3
		[3]int{0, 60, 65},        // 4: inside 2 and 3
		[3]int{0, 90, 120},       // 5: runs past the parent's end
		[3]int{1, 12, 20},        // 6: grandchild, not the root's child
		[3]int{noParent, 0, 5},   // 7: unrelated root
	))
	// Covered: [10,30] + [40,80] + [90,100] = 20 + 40 + 10 = 70.
	if got := ix.selfTime(0); got != ms2d(30) {
		t.Errorf("root self time = %v, want 30ms", got)
	}
	if got := ix.selfTime(1); got != ms2d(12) {
		t.Errorf("child self time = %v, want 12ms", got)
	}
	if got := ix.selfTime(7); got != ms2d(5) {
		t.Errorf("leaf self time = %v, want its duration", got)
	}
	// Busy time adds parallel children up: 20+30+30+5+30 = 115.
	if got := ix.busy(0, "s"); got != ms2d(115) {
		t.Errorf("busy = %v, want 115ms", got)
	}
}

func TestTracerRecordsParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.begin("train", noParent)
	child := tr.begin("featsel.select", root)
	tr.end(child)
	now := time.Now()
	tr.record("client.request", noParent, "pb-1", now, now.Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].ReqID != "pb-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %v not inside parent %v", spans[1], spans[0])
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", noParent); id != noParent {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}

func TestLayerTableCloses(t *testing.T) {
	tb := &layerTable{Total: 10, Tolerance: 0.05, Rows: []tableRow{
		{Value: 6, Sum: true}, {Value: 3.7, Sum: true}, {Value: 9, Depth: 1},
	}}
	if r := tb.rowsRatio(); r < 0.969 || r > 0.971 {
		t.Errorf("rowsRatio = %v, want 0.97", r)
	}
	if !tb.closes() {
		t.Error("0.97 within ±0.05 must close")
	}
	tb.Rows[1].Value = 3
	if tb.closes() {
		t.Error("0.90 outside ±0.05 must not close")
	}
}

func TestTableThatDoesNotCloseFailsTheRun(t *testing.T) {
	r := &runner{out: io.Discard, tables: []*layerTable{
		{Title: "closes", Total: 10, Tolerance: 0.05, Rows: []tableRow{{Value: 9.8, Sum: true}}},
	}}
	r.reportTables()
	if r.led.attempted != 1 || r.led.failed != 0 {
		t.Fatalf("a closing table: %d attempted, %d failed", r.led.attempted, r.led.failed)
	}
	r.tables = append(r.tables, &layerTable{Title: "open", Total: 10, Tolerance: 0.05, Rows: []tableRow{{Value: 9, Sum: true}}})
	r.reportTables()
	if r.led.failed != 1 {
		t.Errorf("a table whose rows sum to 0.90 of its total (±0.05) left %d failures, want 1", r.led.failed)
	}
}
