package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.50, 50},
		{100, 0.90, 90},
		{1000, 0.99, 990},
		{101, 0.50, 51},
		{21, 0.50, 11},
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", 100*c.q, c.n, got, err, c.want)
		}
	}
}

// A percentile needs at least ten samples beyond it: p90 of 100
// samples has exactly ten, p90 of 99 has nine, p99 of 999 has nine,
// p50 of 19 has nine.
func TestPercentileTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.90, true},
		{99, 0.90, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{19, 0.50, false},
		{20, 0.50, true},
		{0, 0.50, false},
	} {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", 100*c.q, c.n, err, c.ok)
		}
	}
	if _, err := percentile(seq(100), 1); err == nil {
		t.Error("q = 1 accepted")
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must give 0")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
