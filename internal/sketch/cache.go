package sketch

import (
	"retypd/internal/constraints"
	"retypd/internal/lru"
	"retypd/internal/pgraph"
)

// DefaultShapeCacheCap is the entry bound of caches created by
// NewShapeCache(0). One entry holds one sealed, decorated sketch; a few
// thousand covers the duplicate-leaf population of corpora far larger
// than the paper's.
const DefaultShapeCacheCap = 4096

// shapeKey identifies one cached shape solution: the canonical
// fingerprint key of (constraint set, variable) — which already covers
// the full constraint structure, the variable's canonical index, and
// the lattice identity — plus the sketch-depth bound the sketch was
// extracted at (the TIE-style baseline truncates recursion; its entries
// must not be served to the unbounded configuration or vice versa).
//
//retypd:cachekey shapeKey.hash64
type shapeKey struct {
	pk    pgraph.Key
	depth int
}

// hash64 folds the key for the cache's 64-bit recency index (the full
// key is collision-checked per probe by internal/lru).
func (k shapeKey) hash64() uint64 {
	return k.pk.Hash64() ^ (uint64(int64(k.depth))+2)*0x9E3779B97F4A7C15
}

// ShapeCache is a thread-safe LRU memo of phase-2 (F.2) shape solving:
// the sealed, decorated Sketch of one variable of one constraint set,
// keyed by the set's canonical fingerprint (pgraph.Fingerprint) and the
// variable's canonical index. Because a sketch automaton mentions no
// variable names at all — only field labels, variances and lattice
// elements, all preserved by constraint-set isomorphism — a hit needs
// no rehydration: the stored sketch IS the local procedure's sketch,
// and the fingerprint's rename map is what translates the local
// variable to the canonical index it was stored under.
//
// Sharing contract (same as pgraph.SimplifyCache): one cache may be
// shared by any number of goroutines and across any number of Infer
// runs — different programs, different solver options, different
// lattices. Safety comes from the key: the canonical fingerprint covers
// the constraint structure and the lattice identity, and the sketch
// depth bound is part of the key, so a hit can only be served to an
// isomorphic constraint set solved under the same Λ and depth. Entries
// are sealed (Sketch.Seal) before they are stored, so concurrent
// sharers can only read them; deriving mutable views (Descend, Meet,
// Join, WithRootVariance) copies. Hit/miss counters are cumulative
// across all sharers; callers wanting per-run numbers snapshot Stats
// before and after (as every solver.Engine run does).
type ShapeCache struct {
	// Sharded by hash64 so concurrent F.2 workers on different keys do
	// not convoy on one mutex; sharding never reaches a key or a wire
	// byte (lru.Sharded preserves global recency across Export/Import).
	lru *lru.Sharded[shapeKey, *Sketch] // values are sealed
}

// NewShapeCache returns an LRU cache bounded to capacity entries
// (capacity ≤ 0 selects DefaultShapeCacheCap).
func NewShapeCache(capacity int) *ShapeCache {
	if capacity <= 0 {
		capacity = DefaultShapeCacheCap
	}
	return &ShapeCache{lru: lru.NewSharded[shapeKey, *Sketch](capacity, 0, shapeKey.hash64)}
}

// Stats reports cumulative hit/miss counts.
func (c *ShapeCache) Stats() (hits, misses uint64) { return c.lru.Stats() }

// Len reports the current entry count.
func (c *ShapeCache) Len() int { return c.lru.Len() }

// SketchFor returns the decorated sketch of v (extracted at depth
// maxDepth) for the fingerprinted constraint set, consulting the memo
// first. build must compute the decorated sketch of its argument from
// scratch (shape quotient + decoration); it is only invoked on a miss
// — taking the variable as a parameter lets callers reuse one build
// closure across every lookup of a procedure instead of allocating one
// per call — and its result is sealed before being stored and
// returned. A nil cache, a nil or unusable fingerprint, or a variable
// outside the fingerprint's rename map all degrade to calling build(v)
// directly (unsealed, uncached).
func (c *ShapeCache) SketchFor(fp *pgraph.FP, v constraints.Var, maxDepth int, build func(constraints.Var) *Sketch) *Sketch {
	if c == nil || fp == nil {
		return build(v)
	}
	pk, ok := fp.KeyFor(v)
	if !ok {
		return build(v)
	}
	if maxDepth < 0 {
		maxDepth = -1 // every negative bound means "unbounded": one key
	}
	key := shapeKey{pk: pk, depth: maxDepth}
	// Single-flight: concurrent workers missing on the same key wait
	// for the first one's sealed sketch instead of re-running the shape
	// quotient and decoration.
	sk, _ := c.lru.Do(key, func() (*Sketch, bool) {
		return build(v).Seal(), true
	})
	return sk
}
