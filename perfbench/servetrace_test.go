package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"temporaldoc/internal/serve"
)

func TestStageWindow(t *testing.T) {
	before := serve.StageStatz{Count: 100, MeanUS: 200} // 20 000 µs in total
	after := serve.StageStatz{Count: 300, MeanUS: 150}  // 45 000 µs in total
	got, n := stageWindow(before, after)
	if n != 200 || math.Abs(got-0.125) > 1e-12 { // 25 000 µs / 200 = 125 µs
		t.Errorf("stageWindow = %v ms over %d, want 0.125 ms over 200", got, n)
	}
	if got, n := stageWindow(after, after); got != 0 || n != 0 {
		t.Errorf("empty window = %v over %d", got, n)
	}
}

func TestHitRatio(t *testing.T) {
	before := map[string]int64{"core.encode.cache.hits": 10, "core.encode.cache.misses": 90}
	after := map[string]int64{"core.encode.cache.hits": 40, "core.encode.cache.misses": 100}
	if got := hitRatio(before, after, "core.encode.cache"); got != 0.75 {
		t.Errorf("hitRatio = %v, want 0.75", got)
	}
	// A counter the server never registered reads as zero on both sides.
	if got := hitRatio(before, after, "hsom.wordvec.cache"); got != 0 {
		t.Errorf("no lookups: hitRatio = %v, want 0", got)
	}
}

func TestDecodeCategories(t *testing.T) {
	body := []byte(`{"model_hash":"abc","model":"default","version":"current","results":[{"id":"d1","categories":["earn","acq"]}]}`)
	cats, err := decodeCategories(body, "abc")
	if err != nil || len(cats) != 2 || cats[0] != "earn" {
		t.Errorf("decodeCategories = %v, %v", cats, err)
	}
	if _, err := decodeCategories(body, "def"); err == nil {
		t.Error("a foreign model_hash was accepted")
	}
	if _, err := decodeCategories([]byte(`{"model_hash":"abc","results":[]}`), "abc"); err == nil {
		t.Error("a reply without results was accepted")
	}
}

func TestSummariseLeavesOutShortSubWindows(t *testing.T) {
	t0 := time.Now()
	bounds := []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second), t0.Add(3 * time.Second)}
	cpuAt := []time.Duration{0, 100 * time.Millisecond, 150 * time.Millisecond, 350 * time.Millisecond}
	lat := [][]float64{seq(100), seq(50), seq(200)} // the middle one is too short for a p90
	sw, err := summarise(lat, bounds, cpuAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.short) != 1 || !slices.Equal(sw.perSec, []float64{100, 200}) ||
		!slices.Equal(sw.p50, []float64{50, 100}) || !slices.Equal(sw.p90, []float64{90, 180}) {
		t.Errorf("summarise = %+v", sw)
	}
	// 100 ms of CPU over 100 replies, then 200 ms over 200.
	if len(sw.cpuPerDoc) != 2 || math.Abs(sw.cpuPerDoc[0]-1000) > 1e-9 || math.Abs(sw.cpuPerDoc[1]-1000) > 1e-9 {
		t.Errorf("cpu us/doc = %v, want [1000 1000]", sw.cpuPerDoc)
	}
	lat[2] = seq(10)
	if _, err := summarise(lat, bounds, cpuAt); err == nil {
		t.Error("two short sub-windows of three measured")
	}
}
