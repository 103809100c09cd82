package hsom

import "math"

// value finishes a Gaussian evaluation from the squared distance d2 —
// shared by Eval and EvalSparse so their tails are the same
// instructions.
//
//tdlint:hotpath
func (g *Gaussian) value(d2 float64) float64 {
	sigma2 := g.Variance
	if sigma2 < 1e-12 {
		// Degenerate BMU: all training words identical. Exact matches
		// get the max value, everything else decays sharply.
		sigma2 = 1e-12
	}
	return 1 / math.Sqrt(2*math.Pi*sigma2) * math.Exp(-d2/(2*sigma2))
}

// EvalSparse returns exactly Eval of the sparse vector's dense
// expansion. A Gaussian's zero terms contribute (0 − Mean[i])² =
// Mean[i]² — NOT 0.0 — so unlike the dot-product kernels they cannot
// be skipped without changing bits. Instead the kernel walks the full
// mean with a cursor into the sorted sparse indices, performing the
// dense loop's operations in the dense loop's exact order; sparsity
// here buys freedom from the dense buffer, not fewer flops (the dense
// 91-dim walk is one unit's worth of work and never dominates — the
// BMU sweep over all 64 units is where the sparse dot pays off).
//
//tdlint:hotpath
func (g *Gaussian) EvalSparse(idx []int32, val []float64) float64 {
	var d2 float64
	j := 0
	for i := range g.Mean {
		var xi float64
		if j < len(idx) && int(idx[j]) == i {
			xi = val[j]
			j++
		}
		diff := xi - g.Mean[i]
		d2 += diff * diff
	}
	return g.value(d2)
}
