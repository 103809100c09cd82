// Package facts is the cross-package summary store of the dataflow
// engine. An analyzer's facts phase runs once per package, in import
// order, and records named per-function facts ("impure", with a
// provenance chain, is the canonical one); the driver then *seals* the
// package, serializing its facts to a standalone blob exactly the way
// the build caches export data. Downstream packages read upstream facts
// only through sealed blobs — decoded on demand — so a summary that
// would not survive serialization cannot leak between packages.
package facts

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
)

// Fact is one serialized entry: a named property of one function.
type Fact struct {
	// Fn is the function's full name as types.Func.FullName renders it,
	// e.g. "temporaldoc/internal/som.Train" or
	// "(*temporaldoc/internal/som.Map).BMU".
	Fn string `json:"fn"`
	// Name is the fact name within the owning analyzer's namespace.
	Name string `json:"name"`
	// Detail is free-form payload (the purity analyzer stores the
	// impurity provenance chain here).
	Detail string `json:"detail,omitempty"`
}

type key struct{ fn, name string }

// Store holds one analyzer's facts: an open working set for the package
// currently being analyzed, plus sealed per-package blobs for every
// package already finished.
type Store struct {
	openPkg string
	open    map[key]string
	sealed  map[string][]byte
	decoded map[string]map[key]string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		sealed:  map[string][]byte{},
		decoded: map[string]map[key]string{},
	}
}

// FuncID is the stable identifier facts are keyed by.
func FuncID(fn *types.Func) string { return fn.FullName() }

// Begin opens a working set for pkgPath. The previous package must have
// been sealed.
func (s *Store) Begin(pkgPath string) error {
	if s.open != nil {
		return fmt.Errorf("facts: package %q still open", s.openPkg)
	}
	s.openPkg = pkgPath
	s.open = map[key]string{}
	return nil
}

// Put records a fact for fn in the open package's working set.
func (s *Store) Put(fn *types.Func, name, detail string) {
	s.PutID(FuncID(fn), name, detail)
}

// PutID records a fact under an arbitrary stable identifier — used for
// non-function subjects such as struct fields (the atomicsafe field
// registry keys facts by "pkg.Type.field").
func (s *Store) PutID(id, name, detail string) {
	if s.open == nil {
		panic("facts: Put outside Begin/Seal")
	}
	s.open[key{id, name}] = detail
}

// Get looks a fact up by subject ID: the open working set first (the
// package being analyzed sees its own facts live), then every sealed
// package, decoding blobs on first touch.
func (s *Store) Get(fnID, name string) (detail string, ok bool) {
	k := key{fnID, name}
	if s.open != nil {
		if d, ok := s.open[k]; ok {
			return d, true
		}
	}
	for pkg, blob := range s.sealed {
		m, err := s.decode(pkg, blob)
		if err != nil {
			continue
		}
		if d, ok := m[k]; ok {
			return d, true
		}
	}
	return "", false
}

// GetFunc is Get keyed by the function object.
func (s *Store) GetFunc(fn *types.Func, name string) (string, bool) {
	return s.Get(FuncID(fn), name)
}

// Seal serializes the open working set into the package's blob and
// closes it. Sealing an empty set stores an empty blob — "analyzed,
// nothing to report" is itself a result.
func (s *Store) Seal() error {
	if s.open == nil {
		return fmt.Errorf("facts: Seal without Begin")
	}
	blob, err := encode(s.open)
	if err != nil {
		return err
	}
	s.sealed[s.openPkg] = blob
	delete(s.decoded, s.openPkg)
	s.open, s.openPkg = nil, ""
	return nil
}

// decode caches a blob's decoded map.
func (s *Store) decode(pkg string, blob []byte) (map[key]string, error) {
	if m, ok := s.decoded[pkg]; ok {
		return m, nil
	}
	m, err := decodeBlob(blob)
	if err != nil {
		return nil, err
	}
	s.decoded[pkg] = m
	return m, nil
}

func encode(m map[key]string) ([]byte, error) {
	facts := make([]Fact, 0, len(m))
	for k, d := range m {
		facts = append(facts, Fact{Fn: k.fn, Name: k.name, Detail: d})
	}
	sort.Slice(facts, func(i, j int) bool {
		if facts[i].Fn != facts[j].Fn {
			return facts[i].Fn < facts[j].Fn
		}
		return facts[i].Name < facts[j].Name
	})
	return json.Marshal(facts)
}

func decodeBlob(blob []byte) (map[key]string, error) {
	var facts []Fact
	if err := json.Unmarshal(blob, &facts); err != nil {
		return nil, err
	}
	m := make(map[key]string, len(facts))
	for _, f := range facts {
		m[key{f.Fn, f.Name}] = f.Detail
	}
	return m, nil
}
