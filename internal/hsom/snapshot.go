package hsom

import (
	"fmt"
	"sort"

	"temporaldoc/internal/som"
)

// GaussianSnapshot is the serialisable form of a membership function.
type GaussianSnapshot struct {
	Unit     int       `json:"unit"`
	Mean     []float64 `json:"mean"`
	Variance float64   `json:"variance"`
	MaxValue float64   `json:"max_value"`
	MinValue float64   `json:"min_value"`
}

// CategorySnapshot is the serialisable state of one category encoder.
type CategorySnapshot struct {
	Category string             `json:"category"`
	Map      som.Snapshot       `json:"map"`
	Selected []int              `json:"selected"`
	Gauss    []GaussianSnapshot `json:"gauss"`
	Hits     []int              `json:"hits"`
}

// Snapshot is the serialisable state of the full hierarchy.
type Snapshot struct {
	Config     Config             `json:"config"`
	CharMap    som.Snapshot       `json:"char_map"`
	Categories []CategorySnapshot `json:"categories"`
}

// Snapshot captures the encoder state for persistence.
func (e *Encoder) Snapshot() Snapshot {
	s := Snapshot{Config: e.cfg, CharMap: e.charMap.Snapshot()}
	for _, cat := range e.Categories() {
		ce := e.categories[cat]
		cs := CategorySnapshot{
			Category: ce.Category,
			Map:      ce.Map.Snapshot(),
			Selected: append([]int(nil), ce.selected...),
			Hits:     append([]int(nil), ce.hits...),
		}
		units := make([]int, 0, len(ce.gauss))
		for u := range ce.gauss {
			units = append(units, u)
		}
		sort.Ints(units)
		for _, u := range units {
			g := ce.gauss[u]
			cs.Gauss = append(cs.Gauss, GaussianSnapshot{
				Unit:     u,
				Mean:     append([]float64(nil), g.Mean...),
				Variance: g.Variance,
				MaxValue: g.MaxValue,
				MinValue: g.MinValue,
			})
		}
		s.Categories = append(s.Categories, cs)
	}
	return s
}

// FromSnapshot reconstructs an encoder from persisted state.
func FromSnapshot(s Snapshot) (*Encoder, error) {
	charMap, err := som.FromSnapshot(s.CharMap)
	if err != nil {
		return nil, fmt.Errorf("hsom: char map: %w", err)
	}
	// The char map codes (letter, position) pairs, and every word map
	// codes vectors with one entry per char-map unit: any other geometry
	// would index out of range in the fanout build or the level-2 sweep.
	if charMap.Dim() != 2 {
		return nil, fmt.Errorf("hsom: char map dim %d, want 2", charMap.Dim())
	}
	cfg := s.Config
	cfg.setDefaults()
	enc := &Encoder{
		cfg:        cfg,
		charMap:    charMap,
		categories: make(map[string]*CategoryEncoder, len(s.Categories)),
	}
	// The fanout table is derived state — snapshots persist only the char
	// map weights, so rebuild the table from them here. Existing snapshot
	// files load (and re-save) byte-for-byte unchanged.
	enc.fan = newFanoutTable(charMap, cfg.BMUFanout)
	for _, cs := range s.Categories {
		if cs.Category == "" {
			return nil, fmt.Errorf("hsom: snapshot category with empty name")
		}
		if _, dup := enc.categories[cs.Category]; dup {
			return nil, fmt.Errorf("hsom: duplicate snapshot category %q", cs.Category)
		}
		wordMap, err := som.FromSnapshot(cs.Map)
		if err != nil {
			return nil, fmt.Errorf("hsom: category %s: %w", cs.Category, err)
		}
		if wordMap.Dim() != charMap.Units() {
			return nil, fmt.Errorf("hsom: category %s: word map dim %d, want %d", cs.Category, wordMap.Dim(), charMap.Units())
		}
		if len(cs.Hits) != wordMap.Units() {
			return nil, fmt.Errorf("hsom: category %s: %d hits for %d units", cs.Category, len(cs.Hits), wordMap.Units())
		}
		ce := &CategoryEncoder{
			Category: cs.Category,
			Map:      wordMap,
			selected: append([]int(nil), cs.Selected...),
			gauss:    make(map[int]*Gaussian, len(cs.Gauss)),
			hits:     append([]int(nil), cs.Hits...),
		}
		for _, u := range cs.Selected {
			if u < 0 || u >= wordMap.Units() {
				return nil, fmt.Errorf("hsom: category %s: selected unit %d out of range", cs.Category, u)
			}
		}
		for _, gs := range cs.Gauss {
			if gs.Unit < 0 || gs.Unit >= wordMap.Units() {
				return nil, fmt.Errorf("hsom: category %s: gaussian unit %d out of range", cs.Category, gs.Unit)
			}
			if len(gs.Mean) != charMap.Units() {
				return nil, fmt.Errorf("hsom: category %s: gaussian dim %d, want %d", cs.Category, len(gs.Mean), charMap.Units())
			}
			ce.gauss[gs.Unit] = &Gaussian{
				Mean:     append([]float64(nil), gs.Mean...),
				Variance: gs.Variance,
				MaxValue: gs.MaxValue,
				MinValue: gs.MinValue,
			}
		}
		enc.categories[cs.Category] = ce
	}
	return enc, nil
}
