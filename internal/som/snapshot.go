package som

import "fmt"

// Snapshot is the serialisable state of a trained map.
type Snapshot struct {
	Config  Config      `json:"config"`
	Weights [][]float64 `json:"weights"`
	AWC     []float64   `json:"awc,omitempty"`
}

// Snapshot captures the map state for persistence.
func (m *Map) Snapshot() Snapshot {
	s := Snapshot{
		Config:  m.cfg,
		Weights: make([][]float64, m.Units()),
		AWC:     append([]float64(nil), m.awc...),
	}
	for u := range s.Weights {
		s.Weights[u] = append([]float64(nil), m.Weights(u)...)
	}
	return s
}

// FromSnapshot reconstructs a map from persisted state.
func FromSnapshot(s Snapshot) (*Map, error) {
	if err := s.Config.validate(); err != nil {
		return nil, err
	}
	units := s.Config.Width * s.Config.Height
	if len(s.Weights) != units {
		return nil, fmt.Errorf("som: snapshot has %d weight vectors, want %d", len(s.Weights), units)
	}
	// Check every vector before sizing the flat buffer: a corrupt Dim
	// must fail here, not in an allocation sized from it.
	for u, w := range s.Weights {
		if len(w) != s.Config.Dim {
			return nil, fmt.Errorf("som: snapshot unit %d has dim %d, want %d", u, len(w), s.Config.Dim)
		}
	}
	flat := make([]float64, 0, units*s.Config.Dim)
	for _, w := range s.Weights {
		flat = append(flat, w...)
	}
	m := &Map{
		cfg:   s.Config,
		flat:  flat,
		norm2: make([]float64, units),
		awc:   append([]float64(nil), s.AWC...),
	}
	for u := 0; u < units; u++ {
		m.updateNorm(u)
	}
	return m, nil
}
