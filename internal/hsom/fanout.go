package hsom

import (
	"math"
	"sync"

	"temporaldoc/internal/som"
)

// Once character-map training freezes the weights, the 3-nearest-BMU
// search that WordVector runs per character is a fixed finite function
// of (letter, position): there are only 26 letters and positions encode
// as 2·pos−1. This file precomputes that function into a flat
// [26 × fanoutMaxPos × k] unit table, built by calling the live
// NearestK search once per cell — so the table is bit-exact against the
// search it replaces, tie-breaking included, by construction. The table
// is derived state: rebuilt after training and after every snapshot
// load, never persisted, so existing snapshot files stay valid.

// fanoutMaxPos bounds the precomputed positions. Characters beyond it
// (49-letter words, in practice noise) fall back to the live NearestK
// search, which stays the reference implementation.
const fanoutMaxPos = 32

// fanoutTable maps (letter, 1-based position) to the k most affected
// first-level BMUs, nearest first.
type fanoutTable struct {
	k      int
	maxPos int
	units  []int32 // [letter][pos-1][rank], row-major
}

// newFanoutTable precomputes the char-map fanout for every
// (letter, position) cell via the live search.
func newFanoutTable(m *som.Map, fanout int) *fanoutTable {
	k := fanout
	if k > m.Units() {
		k = m.Units()
	}
	if k <= 0 {
		return nil
	}
	t := &fanoutTable{
		k:      k,
		maxPos: fanoutMaxPos,
		units:  make([]int32, 26*fanoutMaxPos*k),
	}
	in := make([]float64, 2)
	for letter := 0; letter < 26; letter++ {
		for pos := 1; pos <= fanoutMaxPos; pos++ {
			in[0] = float64(letter) + 1
			in[1] = float64(2*pos - 1)
			near := m.NearestK(in, k)
			base := (letter*fanoutMaxPos + pos - 1) * k
			for rank, u := range near {
				t.units[base+rank] = int32(u)
			}
		}
	}
	return t
}

// row returns the precomputed fanout units of one (letter, position)
// cell, nearest first. letter is 0-based ('a' = 0); pos is 1-based and
// must be ≤ maxPos.
//
//tdlint:hotpath
func (t *fanoutTable) row(letter, pos int) []int32 {
	base := (letter*t.maxPos + pos - 1) * t.k
	return t.units[base : base+t.k : base+t.k]
}

// wordEntry is one word's cached encoding state: the dense char-map
// vector (the public WordVector result) plus its sparse (index, value)
// form in both precisions, shared with every level-2 kernel. The fields
// are written exactly once, inside once, and only read after once.Do
// returns — sync.Once publishes them safely to every waiter.
type wordEntry struct {
	once  sync.Once
	dense []float64
	idx   []int32   // sorted non-zero indices of dense
	val   []float64 // dense[idx[k]]
	val32 []float32 // float32(val[k]), for the opt-in float32 kernel
}

// lookupWord returns the word's filled cache entry, computing it
// exactly once per word however many goroutines race on a cold word:
// the entry is registered under the write lock (recheck included, so
// two racing registrations cannot both insert) and filled under its
// own sync.Once, which losers of the registration race simply wait on
// instead of re-running the per-character search and discarding the
// duplicate — the old stampede. The discarded-duplicate count lands in
// hsom.wordvec.cache.stampede.
func (e *Encoder) lookupWord(word string) *wordEntry {
	e.mu.RLock()
	en := e.wordVecs[word]
	e.mu.RUnlock()
	if en != nil {
		e.met.wvHit.Inc()
	} else {
		e.mu.Lock()
		if e.wordVecs == nil {
			e.wordVecs = make(map[string]*wordEntry)
		}
		if en = e.wordVecs[word]; en == nil {
			en = &wordEntry{}
			e.wordVecs[word] = en
		} else {
			// Another goroutine registered the word between our read
			// unlock and write lock: without the recheck this caller
			// would have recomputed the full per-character search and
			// raced to overwrite the entry. Count the computation we
			// just avoided discarding.
			e.met.wvStampede.Inc()
		}
		e.mu.Unlock()
	}
	en.once.Do(func() {
		e.met.wvMiss.Inc()
		e.fillWordEntry(en, word)
	})
	return en
}

// fillWordEntry computes a word's dense vector — through the fanout
// table where possible, through the live NearestK search beyond the
// table bound — and derives its sparse forms. The per-character
// contributions are added in exactly the live search's order (character by
// character, rank by rank), so the dense vector is bit-identical to
// the pre-table computation.
func (e *Encoder) fillWordEntry(en *wordEntry, word string) {
	dense := make([]float64, e.charMap.Units())
	fan := e.fan
	pos := 0
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c = c - 'A' + 'a'
		}
		if c < 'a' || c > 'z' {
			continue
		}
		pos++
		if fan != nil && pos <= fan.maxPos {
			for rank, unit := range fan.row(int(c-'a'), pos) {
				dense[unit] += 1 / float64(rank+1)
			}
			continue
		}
		// Fallback: the live search the table was built from. Taken for
		// positions beyond the table bound (and by encoders without a
		// table), so the two paths can never disagree.
		e.met.wvFallback.Inc()
		near := e.charMap.NearestK([]float64{float64(c-'a') + 1, float64(2*pos - 1)}, e.cfg.BMUFanout)
		for rank, unit := range near {
			dense[unit] += 1 / float64(rank+1)
		}
	}
	nnz := 0
	for _, v := range dense {
		if math.Float64bits(v) != 0 {
			nnz++
		}
	}
	en.idx = make([]int32, 0, nnz)
	en.val = make([]float64, 0, nnz)
	en.val32 = make([]float32, 0, nnz)
	for i, v := range dense {
		if math.Float64bits(v) != 0 {
			en.idx = append(en.idx, int32(i))
			en.val = append(en.val, v)
			en.val32 = append(en.val32, float32(v))
		}
	}
	en.dense = dense
}

// ClearWordCache drops every cached word vector. The cache is a pure
// function of the frozen character map, so clearing is always safe; it
// exists to bound memory on unbounded-vocabulary streams and to give
// benchmarks a cold-word path.
func (e *Encoder) ClearWordCache() {
	e.mu.Lock()
	e.wordVecs = nil
	e.mu.Unlock()
}
