package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// noParent marks a root span.
const noParent = -1

// span is one timed interval around a call from the benchmark into a
// layer of the program. Spans of one request share ReqID.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	ReqID  string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the tracer's origin
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pass nil.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int, reqID string, start, end time.Time) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: start.Sub(t.origin), End: end.Sub(t.origin),
	})
	return id
}

// begin opens a span whose end is set by end(id); children may name it
// as their parent in between.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, "", now, now)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now.Sub(t.origin)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers parent/child questions over a span set.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int][]int)}
	for i, s := range spans {
		if s.Parent != noParent {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// selfTime is a span's duration minus the part of its interval covered
// by its children. Children that run in parallel overlap; the covered
// part counts each instant once, and child time outside the parent's
// interval is ignored.
func (ix *spanIndex) selfTime(id int) time.Duration {
	p := ix.spans[id]
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range ix.children[id] {
		lo, hi := ix.spans[c].Start, ix.spans[c].End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return p.dur() - covered
}

// busy sums the durations of parent's children named name. Parallel
// children add up, so the sum may exceed the parent's wall time.
func (ix *spanIndex) busy(parent int, name string) time.Duration {
	var d time.Duration
	for _, c := range ix.children[parent] {
		if ix.spans[c].Name == name {
			d += ix.spans[c].dur()
		}
	}
	return d
}

// tableRow is one line of a layer table. Rows with Sum set are the
// ones that must add up to the table's total.
type tableRow struct {
	Name  string
	Value float64
	Unit  string
	Depth int
	Sum   bool
	Note  string
}

// layerTable is one workload phase split into layers.
type layerTable struct {
	Title     string
	TotalName string
	Total     float64
	Unit      string
	Rows      []tableRow
	Tolerance float64 // allowed |1 - rows/total|
	Traced    bool    // the phase ran traced; Overhead applies
	Overhead  float64 // traced / untraced - 1
}

// rowsRatio is the sum of the Sum rows over the total.
func (t *layerTable) rowsRatio() float64 {
	if t.Total == 0 {
		return 0
	}
	var s float64
	for _, r := range t.Rows {
		if r.Sum {
			s += r.Value
		}
	}
	return s / t.Total
}

// closes reports whether the Sum rows add up to the total within the
// table's tolerance.
func (t *layerTable) closes() bool {
	r := t.rowsRatio()
	return r >= 1-t.Tolerance && r <= 1+t.Tolerance
}

func (t *layerTable) render(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	fmt.Fprintf(w, "  %-34s %12s %-6s %7s  %s\n", "row", "value", "unit", "share", "")
	fmt.Fprintf(w, "  %-34s %12.4f %-6s %6.1f%%\n", t.TotalName, t.Total, t.Unit, 100.0)
	for _, r := range t.Rows {
		name := strings.Repeat("  ", r.Depth) + r.Name
		share := ""
		if r.Unit == t.Unit && t.Total > 0 {
			share = fmt.Sprintf("%6.1f%%", 100*r.Value/t.Total)
		}
		mark := ""
		if r.Sum {
			mark = "+"
		}
		fmt.Fprintf(w, "  %-34s %12.4f %-6s %7s %1s %s\n", name, r.Value, r.Unit, share, mark, r.Note)
	}
	verdict := "closes"
	if !t.closes() {
		verdict = "DOES NOT CLOSE"
	}
	fmt.Fprintf(w, "  rows marked + sum to %.4f of the total (tolerance ±%.2f: %s)", t.rowsRatio(), t.Tolerance, verdict)
	if t.Traced {
		fmt.Fprintf(w, "; tracing overhead %+.1f%% against the untraced run", 100*t.Overhead)
	}
	fmt.Fprintln(w)
}
