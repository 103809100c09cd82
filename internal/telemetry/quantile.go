package telemetry

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated from the
// snapshot's bucket counts by linear interpolation inside the bucket
// the quantile falls in, the standard fixed-bucket estimator:
//
//   - the target rank is q·count;
//   - buckets are walked in order accumulating counts until the
//     cumulative count reaches the rank;
//   - within that bucket the value is interpolated linearly between its
//     lower and upper bound, proportional to where the rank sits among
//     the bucket's own observations.
//
// The first bucket's lower edge is 0 — the right choice for the
// non-negative durations and sizes this package's histograms record.
// Ranks landing in the overflow bucket return the last bound (the
// largest value the histogram can still vouch for; there is no upper
// edge to interpolate toward). q outside [0,1] is clamped. An empty
// snapshot (no observations) returns 0.
//
// The estimate is monotone in q by construction: a larger rank can only
// move forward through the buckets and rightward inside one.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: unbounded above, so the last bound is the
			// best defensible answer.
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	// Unreachable when total > 0; keep the zero answer for safety.
	return 0
}

// Quantiles evaluates several quantiles in one call, in the given
// order. Convenience over Quantile for statz-style reporting.
func (h HistogramSnapshot) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// Mean returns the snapshot's mean observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
