package hsom

import (
	"fmt"
	"math"
)

// Kernel selects the level-2 (word-map) distance kernel the encoder
// classifies with. It is a runtime knob, never persisted: snapshots
// always store float64 weights, and every kernel is derived from them
// after load.
type Kernel string

const (
	// KernelFloat64 is the default: the table-driven fanout plus the
	// sparse float64 BMU sweep, proven bit-identical to a dense BMU
	// search and dense Gaussian evaluation by TestEncodeKernelParity
	// (the empty string also selects it).
	KernelFloat64 Kernel = "float64"
	// KernelFloat32 runs the level-2 BMU distance sweep in float32 over
	// a derived weight view. Opt-in only: deterministic, but not
	// bit-identical to float64 — ambiguous ties can resolve differently,
	// so it is gated by the macro-F1 bound in TestFloat32KernelAccuracy
	// and must never become the default. Gaussian membership stays in
	// float64 either way.
	KernelFloat32 Kernel = "float32"
)

// ParseKernel resolves a user-supplied kernel name ("" selects the
// default).
func ParseKernel(name string) (Kernel, error) {
	switch Kernel(name) {
	case "", KernelFloat64:
		return KernelFloat64, nil
	case KernelFloat32:
		return KernelFloat32, nil
	default:
		return "", fmt.Errorf("hsom: unknown kernel %q (float64, float32)", name)
	}
}

// SetKernel selects the level-2 distance kernel. Selecting
// KernelFloat32 derives (and caches) the float32 weight views; they are
// never persisted. Not safe to call concurrently with encoding —
// services set the kernel once per loaded model, before serving it.
func (e *Encoder) SetKernel(k Kernel) error {
	switch k {
	case "", KernelFloat64:
		k = KernelFloat64
	case KernelFloat32:
		for _, cat := range e.Categories() {
			ce := e.categories[cat]
			if ce.k32 == nil {
				ce.k32 = ce.Map.F32Kernel()
			}
		}
	default:
		return fmt.Errorf("hsom: unknown kernel %q (float64, float32)", k)
	}
	e.kernel = k
	return nil
}

// Kernel returns the active level-2 kernel.
func (e *Encoder) Kernel() Kernel {
	if e.kernel == "" {
		return KernelFloat64
	}
	return e.kernel
}

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

// bmuFor runs the active kernel's level-2 BMU search for one cached
// word entry on one category map.
//
//tdlint:hotpath
func (e *Encoder) bmuFor(ce *CategoryEncoder, en *wordEntry) int {
	if e.kernel == KernelFloat32 {
		return ce.k32.BMUSparse(en.idx, en.val32)
	}
	return ce.Map.BMUSparse(en.idx, en.val)
}
