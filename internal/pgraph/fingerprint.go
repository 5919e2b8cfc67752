package pgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/maphash"
	"strconv"
	"strings"
	"sync"

	"retypd/internal/constraints"
	"retypd/internal/intern"
	"retypd/internal/lattice"
	"retypd/internal/lru"
)

// canonPrefix is the namespace of canonical variable names used by
// fingerprinting. Program variables never contain it (procedure names
// come from assembly symbols, minted solver variables use ';', '!',
// '@' and 'τ'); if one ever does, fingerprinting declines to
// canonicalize rather than risk a collision in the cached (renamed)
// schemes.
const canonPrefix = "¤" // ¤

// FP is a canonical fingerprint of a constraint set: a content hash
// that is invariant under renaming of the non-constant base variables.
// Two constraint sets with the same fingerprint are isomorphic — they
// differ at most in variable names — so the simplification of one is
// the simplification of the other modulo the same renaming. This is
// what lets duplicate leaf procedures across a corpus be simplified
// once (BinSub observes simplification dominates end-to-end inference
// cost; the paper's Appendix F notes the per-SCC structure that makes
// the sharing sound).
//
// The hash is computed over portable canonical bytes: each non-constant
// base symbol is mapped to a dense canonical index in order of first
// occurrence, constants contribute their names, label words contribute
// their precomputed wire encodings (label.AppendWire via the intern
// table, a copy — no per-occurrence rendering), and the lattice's
// content signature is mixed in. Nothing process-local reaches the
// digest, so the same constraint structure fingerprints to the same sum
// in every process — which is what lets fingerprint-keyed cache entries
// be persisted and served across process restarts (see Key.AppendWire
// and solver's cache persistence). FPVersion is folded into the digest;
// bump it whenever the hashed content changes shape.
type FP struct {
	ok     bool
	sum    [sha256.Size]byte
	rename map[intern.Sym]uint32
	// locals is the inverse of rename: locals[idx] is the local base
	// symbol assigned canonical index idx (first-occurrence order).
	locals []intern.Sym
}

// Key is the comparable cache key of one (fingerprint, root) pair.
//
//retypd:cachekey Key.Hash64
type Key struct {
	sum  [sha256.Size]byte
	root uint32
}

// String renders the key for diagnostics.
func (k Key) String() string {
	return hex.EncodeToString(k.sum[:]) + "|" + canonPrefix + strconv.FormatUint(uint64(k.root), 10)
}

// keySeed seeds the 64-bit recency-index hashes of the fingerprint
// caches (process-stable, fresh per run so the hash is not an
// attacker-predictable function of the content digest).
var keySeed = maphash.MakeSeed()

// Hash64 folds the key into the 64-bit recency-index hash used by the
// memo caches. The full key stays on each cache entry and is compared
// on every probe, so this hash only needs to spread, not to identify.
func (k Key) Hash64() uint64 {
	var h maphash.Hash
	h.SetSeed(keySeed)
	_, _ = h.Write(k.sum[:])
	var rb [4]byte
	binary.LittleEndian.PutUint32(rb[:], k.root)
	_, _ = h.Write(rb[:])
	return h.Sum64()
}

// fpBufPool recycles the scratch buffers fingerprint hashing is
// accumulated into.
var fpBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Operand-class tags mixed into the hash so constant and renamed
// variables can never collide.
const (
	fpConst   = 0x01
	fpRenamed = 0x02
)

// FPVersion is the version of the fingerprint's hashed content, folded
// into every digest. Any change to what Fingerprint hashes (field
// order, encodings, new discriminators) must bump it, so that keys
// persisted under the old scheme can never collide with — or be served
// for — keys computed under the new one.
const FPVersion = 2

// Fingerprint canonicalizes cs: every base variable that is not a
// lattice constant is mapped to canonical index 0, 1, … in order of
// first occurrence over the set's (deterministic) insertion order, and
// the id-level rendering is hashed. Returns an unusable FP
// (Usable() == false) when canonicalization would be ambiguous.
func Fingerprint(cs *constraints.Set, lat *lattice.Lattice) *FP {
	fp := &FP{rename: map[intern.Sym]uint32{}}
	// constInfo caches the per-symbol constant test and name (one
	// resolution per distinct base variable, not one per occurrence).
	type constInfo struct {
		isConst bool
		name    string
	}
	consts := map[intern.Sym]constInfo{}
	bad := false

	bufp := fpBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	buf = append(buf, FPVersion)

	canonDTV := func(d constraints.DTV) {
		y := d.BaseSym()
		ci, seen := consts[y]
		if !seen {
			_, ci.isConst = lat.ElemSym(y)
			if ci.isConst {
				ci.name = intern.StringOf(y)
			} else if strings.Contains(intern.StringOf(y), canonPrefix) {
				// Only non-constants get renamed, so only they need the
				// canonical-namespace collision check.
				bad = true
			}
			consts[y] = ci
		}
		if ci.isConst {
			buf = append(buf, fpConst)
			buf = binary.AppendUvarint(buf, uint64(len(ci.name)))
			buf = append(buf, ci.name...)
		} else {
			idx, ok := fp.rename[y]
			if !ok {
				idx = uint32(len(fp.rename))
				fp.rename[y] = idx
				fp.locals = append(fp.locals, y)
			}
			buf = append(buf, fpRenamed)
			buf = binary.AppendUvarint(buf, uint64(idx))
		}
		buf = intern.AppendWordWire(buf, d.PathRef())
	}
	for _, c := range cs.Constraints() {
		buf = append(buf, byte(c.Kind))
		switch c.Kind {
		case constraints.KindSub:
			canonDTV(c.L)
			canonDTV(c.R)
		default:
			canonDTV(c.X)
			canonDTV(c.Y)
			canonDTV(c.Z)
		}
	}
	// Mix in the lattice identity (its content signature, which is
	// process-independent): the same canonical constraint structure
	// saturates and simplifies differently under a different Λ, so a
	// cache shared across Infer calls — or across processes via
	// persistence — with different lattices must not cross-serve
	// entries.
	sig := lat.Signature()
	buf = append(buf, 0x00)
	buf = binary.AppendUvarint(buf, uint64(len(sig)))
	buf = append(buf, sig...)

	if !bad {
		fp.ok = true
		fp.sum = sha256.Sum256(buf)
	}
	*bufp = buf
	fpBufPool.Put(bufp)
	if !bad {
		return fp
	}
	return &FP{}
}

// Usable reports whether the fingerprint can key a cache.
func (f *FP) Usable() bool { return f.ok }

// CanonicalIndex returns the canonical index assigned to the local base
// symbol y, or false when y is not one of the fingerprinted
// (non-constant) variables. Together with LocalOf it exposes the full
// rename bijection for cached results that DO mention variables and
// need per-hit translation back to local names. The phase-2 shape memo
// itself only needs the local→canonical direction (KeyFor): sketches
// mention no variable names, so its hits are served without any
// rehydration.
func (f *FP) CanonicalIndex(y intern.Sym) (uint32, bool) {
	idx, ok := f.rename[y]
	return idx, ok
}

// LocalOf returns the local base symbol assigned canonical index idx
// (the canonical→local direction of the rename bijection), or false
// when idx is out of range.
func (f *FP) LocalOf(idx uint32) (intern.Sym, bool) {
	if int(idx) >= len(f.locals) {
		return 0, false
	}
	return f.locals[idx], true
}

// RenameLen reports the number of renamed (non-constant) base
// variables the fingerprint canonicalized.
func (f *FP) RenameLen() int { return len(f.rename) }

// KeyFor returns the cache key for simplifying relative to root, or
// false when root does not occur in the fingerprinted set.
func (f *FP) KeyFor(root constraints.Var) (Key, bool) {
	if !f.ok {
		return Key{}, false
	}
	idx, ok := f.rename[intern.Intern(string(root))]
	if !ok {
		return Key{}, false
	}
	return Key{sum: f.sum, root: idx}, true
}

// canonicalRoot returns root's canonical name ("¤k" for canonical
// index k), used to store and rehydrate cached schemes.
func (f *FP) canonicalRoot(root constraints.Var) (constraints.Var, bool) {
	idx, ok := f.rename[intern.Intern(string(root))]
	if !ok {
		return "", false
	}
	return constraints.Var(canonPrefix + strconv.FormatUint(uint64(idx), 10)), true
}

// renamed reports whether v is one of the fingerprinted (non-constant)
// program variables.
func (f *FP) renamed(y intern.Sym) bool {
	_, ok := f.rename[y]
	return ok
}

// DefaultSimplifyCacheCap is the entry bound of caches created by
// NewSimplifyCache(0). One entry holds one simplified (small) scheme;
// a few thousand covers the leaf-procedure population of corpora far
// larger than the paper's.
const DefaultSimplifyCacheCap = 4096

// SimplifyCache is a thread-safe LRU memo of Simplify results keyed by
// canonical constraint-set fingerprints. Entries are stored in
// canonical form (the root renamed to its ¤k name) and rehydrated on
// hit, so one entry serves every procedure with an isomorphic
// constraint set.
//
// Sharing contract: one cache may be shared by any number of
// goroutines and across any number of Infer runs — including runs over
// different programs, different solver options, and different lattices.
// Safety comes from the key, not the caller: entries are keyed by the
// canonical fingerprint, which covers the full constraint structure
// and the lattice identity (lattice.Signature), and results are stored
// root-canonicalized, so a hit can only be served to an isomorphic set
// under the same Λ. Callers therefore should share one cache as widely
// as possible (e.g. one cache for a whole evaluation suite) to
// maximize cross-program reuse of duplicate leaf procedures; the only
// cost of sharing is LRU pressure on the capacity bound. Hit/miss
// counters are cumulative across all sharers; callers wanting per-run
// numbers snapshot Stats before and after (as every solver.Engine run
// does).
//
// The underlying store is sharded by Hash64 so concurrent workers on
// different keys do not convoy on one mutex; the shard count is an
// internal layout choice that never reaches a key or a wire byte
// (lru.Sharded preserves global recency across Export/Import).
type SimplifyCache struct {
	lru *lru.Sharded[Key, *SimplifyResult]
}

// NewSimplifyCache returns an LRU cache bounded to capacity entries
// (capacity ≤ 0 selects DefaultSimplifyCacheCap).
func NewSimplifyCache(capacity int) *SimplifyCache {
	if capacity <= 0 {
		capacity = DefaultSimplifyCacheCap
	}
	return &SimplifyCache{lru: lru.NewSharded[Key, *SimplifyResult](capacity, 0, Key.Hash64)}
}

// Stats reports cumulative hit/miss counts.
func (c *SimplifyCache) Stats() (hits, misses uint64) { return c.lru.Stats() }

// Len reports the current entry count.
func (c *SimplifyCache) Len() int { return c.lru.Len() }

// Simplify returns the simplification of the (fingerprinted) constraint
// set relative to root, consulting the memo first. build must return
// the saturated graph of the fingerprinted set; it is only invoked on a
// cache miss (and may be shared across roots of one SCC). A nil cache
// degrades to calling build().Simplify directly.
//
// Misses are single-flight: when several workers miss on the same key
// concurrently (duplicate procedures scheduled onto sibling workers),
// one computes and the others wait for its canonical entry instead of
// re-running Build+Saturate+Simplify.
func (c *SimplifyCache) Simplify(fp *FP, root constraints.Var, build func() *Graph) *SimplifyResult {
	interesting := func(v constraints.Var) bool { return v == root }
	if c == nil || fp == nil {
		return build().Simplify(interesting)
	}
	key, ok := fp.KeyFor(root)
	if !ok {
		return build().Simplify(interesting)
	}
	var local *SimplifyResult
	canon, ok := c.lru.Do(key, func() (*SimplifyResult, bool) {
		local = build().Simplify(interesting)
		return canonicalize(local, root, fp)
	})
	if local != nil {
		// This caller led the computation: hand back its own (already
		// local-named) result, whether or not it was cacheable.
		return local
	}
	if ok {
		canonRoot, _ := fp.canonicalRoot(root)
		return rehydrate(canon, canonRoot, root)
	}
	// A concurrent leader's result was not shareable (canonicalize
	// refused it); compute privately.
	return build().Simplify(interesting)
}

// canonicalize rewrites res with root renamed to its canonical name.
// Simplification relative to {root} only ever mentions root, lattice
// constants, and the fresh existential variables it synthesized (whose
// numbering depends only on graph structure, not on names): the result
// is closed. Anything else would be a foreign program variable that
// renaming only the root would mis-share, so an unclosed result is
// refused a cache slot.
func canonicalize(res *SimplifyResult, root constraints.Var, fp *FP) (*SimplifyResult, bool) {
	canonRoot, ok := fp.canonicalRoot(root)
	if !ok {
		return nil, false
	}
	notProgramVar := func(y intern.Sym) bool { return !fp.renamed(y) }
	if !constraints.Closed(res.Constraints, root, res.Existential, notProgramVar) {
		return nil, false
	}
	return rehydrate(res, root, canonRoot), true
}

// rehydrate substitutes from → to in a stored result, copying the
// existential list so cached state is never aliased mutably.
func rehydrate(res *SimplifyResult, from, to constraints.Var) *SimplifyResult {
	cs, ex := constraints.Reroot(res.Constraints, res.Existential, from, to)
	return &SimplifyResult{Constraints: cs, Existential: ex}
}
