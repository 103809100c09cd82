package som

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// TrainBatch runs batch-SOM training: every epoch, each input is
// assigned to its BMU and every unit's weight vector is replaced by the
// neighbourhood-weighted mean of all inputs (the classic batch update).
// Batch training is deterministic regardless of presentation order and
// typically converges in fewer epochs than the online rule; the online
// Train remains the paper-faithful default (the paper presents words
// "in the same order" as the corpus, which only matters online).
func (m *Map) TrainBatch(inputs [][]float64) error {
	if len(inputs) == 0 {
		return errors.New("som: no training inputs")
	}
	for i, x := range inputs {
		if len(x) != m.cfg.Dim {
			return fmt.Errorf("som: input %d has dim %d, want %d", i, len(x), m.cfg.Dim)
		}
	}
	units := m.Units()
	numer := make([][]float64, units)
	denom := make([]float64, units)
	for u := range numer {
		numer[u] = make([]float64, m.cfg.Dim)
	}
	m.awc = m.awc[:0]
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		var epochStart time.Time
		if m.cfg.Observer != nil {
			epochStart = time.Now()
		}
		t := float64(epoch) / float64(m.cfg.Epochs)
		radius := m.cfg.InitialRadius * math.Pow(0.5/math.Max(m.cfg.InitialRadius, 1), t)
		if radius < 0.5 {
			radius = 0.5
		}
		r2 := radius * radius
		for u := range numer {
			for d := range numer[u] {
				numer[u][d] = 0
			}
			denom[u] = 0
		}
		bmus := m.BMUBatch(inputs, 0)
		for i, x := range inputs {
			bmu := bmus[i]
			for u := range numer {
				g2 := m.gridDist2(u, bmu)
				if g2 > 9*r2 {
					continue
				}
				h := math.Exp(-g2 / (2 * r2))
				nu := numer[u]
				for d := range x {
					nu[d] += h * x[d]
				}
				denom[u] += h
			}
		}
		var change float64
		var updates int
		for u := range numer {
			if denom[u] == 0 {
				continue
			}
			w := m.Weights(u)
			for d := range w {
				next := numer[u][d] / denom[u]
				change += math.Abs(next - w[d])
				w[d] = next
				updates++
			}
			m.updateNorm(u)
		}
		if updates > 0 {
			m.awc = append(m.awc, change/float64(updates))
		} else {
			m.awc = append(m.awc, 0)
		}
		if m.cfg.Observer != nil {
			dur := time.Since(epochStart) // before the sweep, as in Map.Train
			m.cfg.Observer(EpochStats{
				Epoch:      epoch,
				AWC:        m.awc[len(m.awc)-1],
				QuantError: m.QuantizationError(inputs),
				Radius:     radius,
				Duration:   dur,
			})
		}
	}
	return nil
}

// UMatrix returns the unified distance matrix of the trained map: for
// each unit, the mean Euclidean distance between its weight vector and
// those of its grid neighbours. High values mark cluster boundaries —
// the standard SOM visualisation for inspecting code-books like the
// paper's word maps.
func (m *Map) UMatrix() []float64 {
	out := make([]float64, m.Units())
	for u := range out {
		ux, uy := m.Coords(u)
		var sum float64
		var n int
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := ux+dx, uy+dy
				if nx < 0 || nx >= m.cfg.Width || ny < 0 || ny >= m.cfg.Height {
					continue
				}
				v := m.UnitAt(nx, ny)
				sum += math.Sqrt(m.dist2(m.Weights(u), v))
				n++
			}
		}
		if n > 0 {
			out[u] = sum / float64(n)
		}
	}
	return out
}

// RenderUMatrix draws the U-matrix as an ASCII shade grid (' ' low,
// '#' high), row by row.
func (m *Map) RenderUMatrix() string {
	um := m.UMatrix()
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, v := range um {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	shades := []byte(" .:-=+*#")
	var b strings.Builder
	for y := 0; y < m.cfg.Height; y++ {
		for x := 0; x < m.cfg.Width; x++ {
			v := um[m.UnitAt(x, y)]
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(shades)-1))
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
