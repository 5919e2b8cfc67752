package solver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"retypd/internal/bodyfp"
	"retypd/internal/constraints"
	"retypd/internal/intern"
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
// changes analysis output — entries are served by the same rerooting
// as in-program members, and every serve is guarded by the
// servability checks in dedup.go. A table from a different
// configuration can never serve wrong results either: the fingerprint
// Config (generation options, lattice signature, context signature)
// prefixes every canonical encoding.
//
// All fields are guarded by mu. Entries are immutable once set and
// set at most once (first publisher wins). An entry carried in from a
// cache file stays an undecoded blob until its class is first hit
// (resolve), so a restart pays only for the entries it serves.
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
	// completes or blob decodes). Written once under bodyCache.mu; the
	// pointed-to entry is immutable.
	entry *bodyEntry
	// blob is the wire form of an entry carried in from a cache file: a
	// slice of the loaded file's bytes, decoded on the class's first hit
	// (resolve) and written back verbatim by appendWire, hit or not. A
	// blob that fails to decode, or whose scheme is not closed, is
	// cleared under bodyCache.mu, so the class misses like one without
	// an entry and the bad bytes are never saved again. While blob is
	// set, entry is nil or its decoded form.
	blob []byte
	//retypd:notkey guards the single decode of blob, which fills entry
	decode sync.Once
}

// bodyEntry is the published result of one full-path run of a class
// member: everything a later equivalent procedure needs to skip
// constraint generation, simplification and sketch solving. Its scheme
// is closed and rooted at the publisher; a consumer reroots it.
//
//retypd:cachekey appendEntryWire
type bodyEntry struct {
	// rep is the publisher's procedure name.
	rep string
	// fp is the publisher's fingerprint: consumers check their call
	// sites against it.
	fp *bodyfp.FP
	// namedProc records, per fp.Calls() site, whether the call target
	// was a procedure of the publisher's program. Meaningful for
	// CalleeNamed sites: generation models program procedures (scheme
	// instantiation) and externals (summary lookup) differently, so a
	// consumer whose same-named target resolves the other way must not
	// be served (see dedupState.entryPlan).
	namedProc []bool
	// scheme is the publisher's simplified type scheme, closed (see
	// constraints.Closed): an entry decoded from a cache file is checked
	// once, at its first resolve.
	scheme *constraints.Scheme
	// sk is the publisher's solved sketch, sealed (sketches mention no
	// variable names, so it is shared verbatim).
	sk *sketch.Sketch
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
// plus the class's current entry (nil when none is published yet). A
// carried blob is decoded first, outside the table mutex; isConst
// identifies lattice constants for its closure check.
func (bc *bodyCache) lookup(fp *bodyfp.FP, isConst func(intern.Sym) bool) (*bodyClass, *bodyEntry) {
	bc.mu.Lock()
	c := bc.find(fp)
	if c == nil {
		c = &bodyClass{id: bc.nextID, fp: fp}
		bc.nextID++
		bc.byHash[fp.Hash()] = append(bc.byHash[fp.Hash()], c)
	}
	bc.mu.Unlock()
	return c, bc.resolve(c, isConst)
}

// prefetch decodes the carried blob of fp's existing class, if any,
// without filing a class. classifyBodies calls it from its parallel
// fingerprint fan-out, so the sequential classification walk finds
// the entries it serves already decoded.
func (bc *bodyCache) prefetch(fp *bodyfp.FP, isConst func(intern.Sym) bool) {
	bc.mu.Lock()
	c := bc.find(fp)
	bc.mu.Unlock()
	if c != nil {
		bc.resolve(c, isConst)
	}
}

// find returns the filed class equivalent to fp, or nil. Callers hold
// bc.mu.
func (bc *bodyCache) find(fp *bodyfp.FP) *bodyClass {
	for _, c := range bc.byHash[fp.Hash()] {
		if c.fp.EquivalentTo(fp) {
			return c
		}
	}
	return nil
}

// resolve returns c's current entry, first decoding its carried blob
// if it has one and no one has yet. The decode runs once per class and
// outside bc.mu, so concurrent runs hitting different classes decode
// in parallel; a failed (or panicking) decode clears the blob, and so
// does a decoded scheme that is not closed under isConst — a cache file
// is outside input, and only a closed scheme serves by rerooting. Every
// run that can reach c shares its lattice (the fingerprint Config
// carries the lattice signature), so one check serves them all.
func (bc *bodyCache) resolve(c *bodyClass, isConst func(intern.Sym) bool) *bodyEntry {
	c.decode.Do(func() {
		bc.mu.Lock()
		blob := c.blob
		bc.mu.Unlock()
		if blob == nil {
			return
		}
		var e *bodyEntry
		defer func() {
			bc.mu.Lock()
			if e == nil {
				c.blob = nil
			} else if c.entry == nil {
				c.entry = e
			}
			bc.mu.Unlock()
		}()
		d, err := decodeEntryWire(blob)
		if err == nil && constraints.Closed(d.scheme.Constraints, d.scheme.Root, d.scheme.Existential, isConst) {
			e = d
		}
	})
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return c.entry
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
// and observations.
func runCtxSig(opts Options, sums summaries.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "depth=%d\x00nospec=%v\x00sums=%s", opts.MaxSketchDepth, opts.NoSpecialize, sumsDigest(sums))
	return hex.EncodeToString(h.Sum(nil))
}
