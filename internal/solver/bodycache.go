package solver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"retypd/internal/bodyfp"
	"retypd/internal/constraints"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// bodyCache is the engine-scoped, persistent table behind the F.0
// body-class layer: body-equivalence classes keyed by canonical
// fingerprint, each optionally carrying the sealed results of the first
// full-path run of any member — the entry a later program's equivalent
// procedure is served from before the front end runs at all.
//
// Class ids are table-scoped: they are handed to bodyfp.Compute as
// CalleeClass identities and therefore appear inside the canonical
// encodings of caller fingerprints filed in the same table. That makes
// ids meaningless across tables — which is why persistence carries
// classes together with their ids and why LoadCacheData installs the
// body section only into an empty table (see persist.go).
//
// The table itself is only a grouping structure: which class id a body
// gets, and whether a run finds an entry or publishes one, never
// changes analysis output — entries are served through the same rename
// surgery as in-program members, and every serve is guarded by the
// servability checks in dedup.go. A table from a different
// configuration can never serve wrong results either: the fingerprint
// Config (generation options, lattice signature, context signature)
// prefixes every canonical encoding.
//
// All fields are guarded by mu. Entries are immutable once set and
// set at most once (first publisher wins).
type bodyCache struct {
	mu     sync.Mutex
	byHash map[uint64][]*bodyClass
	nextID uint32
}

func newBodyCache() *bodyCache {
	return &bodyCache{byHash: map[uint64][]*bodyClass{}}
}

// bodyClass is one body-equivalence class: the canonical fingerprint of
// its first-ever member and, once some member has run the full path to
// completion, that member's sealed results. Every field must reach the
// persisted wire form — a class that loads back without one would serve
// entries it cannot re-verify.
//
//retypd:cachekey bodyCache.appendWire
type bodyClass struct {
	id uint32
	// fp is the founding member's fingerprint — the authority for
	// membership (EquivalentTo against it confirms a hash match).
	fp *bodyfp.FP
	// entry holds the published results (nil until a full-path member
	// completes). Written once under bodyCache.mu; the pointed-to entry
	// is immutable.
	entry *bodyEntry
}

// bodyEntry is the published result of one full-path run of a class
// member: everything a later equivalent procedure needs to skip
// constraint generation, simplification and sketch solving, in the
// publisher's name space (consumers translate through absint.Renamer).
//
//retypd:cachekey appendEntryWire
type bodyEntry struct {
	// rep is the publisher's procedure name — the renamer's From side.
	rep string
	// fp is the publisher's fingerprint: its register assignment and
	// call sites drive the rename pairs and the SameRegisters check.
	fp *bodyfp.FP
	// namedProc records, per fp.Calls() site, whether the call target
	// was a procedure of the publisher's program. Meaningful for
	// CalleeNamed sites: generation models program procedures (scheme
	// instantiation) and externals (summary lookup) differently, so a
	// consumer whose same-named target resolves the other way must not
	// be served (see dedupState.entryPlan).
	namedProc []bool
	// scheme is the publisher's simplified type scheme.
	scheme *constraints.Scheme
	// sk is the publisher's solved sketch, sealed (sketches mention no
	// variable names, so it is shared verbatim).
	sk *sketch.Sketch
	// raw is the publisher's generated constraint set (nil when the
	// publishing run did not keep intermediates; KeepIntermediates
	// consumers then refuse the entry).
	raw *constraints.Set
	// obs are the publisher's callsite-actual observations keyed by
	// call site; consumers re-key them to their own callee names.
	obs []entryObs
}

// entryObs is one callsite-actual observation of a body entry: the
// callee name is deliberately absent (the consumer's same-site callee
// may be a different member of the same class) — it is recovered from
// the consumer's own fingerprint at serve time.
//
//retypd:cachekey appendEntryWire
type entryObs struct {
	inst int
	loc  string
	sk   *sketch.Sketch // sealed
}

// lookup returns the class equivalent to fp, creating it if absent,
// plus the class's current entry (nil when none is published yet).
func (bc *bodyCache) lookup(fp *bodyfp.FP) (*bodyClass, *bodyEntry) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, c := range bc.byHash[fp.Hash()] {
		if c.fp.EquivalentTo(fp) {
			return c, c.entry
		}
	}
	c := &bodyClass{id: bc.nextID, fp: fp}
	bc.nextID++
	bc.byHash[fp.Hash()] = append(bc.byHash[fp.Hash()], c)
	return c, nil
}

// setEntry publishes e as cls's entry unless one is already present
// (first publisher wins — concurrent runs may race here, and either
// entry serves equivalently).
func (bc *bodyCache) setEntry(cls *bodyClass, e *bodyEntry) {
	bc.mu.Lock()
	if cls.entry == nil {
		cls.entry = e
	}
	bc.mu.Unlock()
}

// stats reports the table's class and entry counts.
func (bc *bodyCache) stats() (classes, entries int) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, chain := range bc.byHash {
		classes += len(chain)
		for _, c := range chain {
			if c.entry != nil {
				entries++
			}
		}
	}
	return classes, entries
}

// sorted returns the table's classes in id order (the canonical order
// persistence writes them in).
func (bc *bodyCache) sorted() []*bodyClass {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	out := make([]*bodyClass, 0, len(bc.byHash))
	for _, chain := range bc.byHash {
		out = append(out, chain...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// empty reports whether the table has never filed a class.
func (bc *bodyCache) empty() bool {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.nextID == 0 && len(bc.byHash) == 0
}

// sumsDigest renders a summaries table's content digest: sorted names,
// each with its interface and rendered constraint set. Equal digests
// are what session compatibility and the body-class context signature
// require — a loaded session carries only the digest, never the table.
func sumsDigest(sums summaries.Table) string {
	names := make([]string, 0, len(sums))
	for k := range sums {
		names = append(names, k)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, k := range names {
		s := sums[k]
		if s == nil {
			fmt.Fprintf(h, "%s\x00nil\x00", k)
			continue
		}
		fmt.Fprintf(h, "%s\x00%s\x00%v\x00", k, s.Name, s.HasOut)
		for _, f := range s.FormalIns {
			fmt.Fprintf(h, "%v|", f)
		}
		fmt.Fprintf(h, "\x00%s\x00", s.Constraints.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sessionSumsDigest is sumsDigest for an engine's session check and
// record, where a nil table stands for the stock one
// (summaries.Default, read-only by contract) whose digest is rendered
// once per process.
func sessionSumsDigest(sums summaries.Table) string {
	if sums == nil {
		return stockSumsDigest()
	}
	return sumsDigest(sums)
}

var stockSumsDigest = sync.OnceValue(func() string { return sumsDigest(summaries.Default()) })

// runCtxSig folds everything beyond constraint generation that a
// persistent body entry depends on into one digest for
// bodyfp.Config.CtxSig: the summaries table (externals reach generated
// constraints through it) and the solve options shaping cached sketches
// and observations. KeepIntermediates is deliberately absent — it only
// decides whether the raw set is retained, which consumers check per
// entry at serve time instead of splitting the key space.
func runCtxSig(opts Options, sums summaries.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "depth=%d\x00nospec=%v\x00sums=%s", opts.MaxSketchDepth, opts.NoSpecialize, sumsDigest(sums))
	return hex.EncodeToString(h.Sum(nil))
}
