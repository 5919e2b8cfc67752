// Package intern is the process-wide symbol table backing the interned
// derived-type-variable core.
//
// Profiling showed whole-program inference to be allocation-bound:
// derived type variables were passed around as freshly rendered strings
// and every hot index (constraint-set dedup, constraint-graph nodes,
// shape-inference classes, fingerprint canonicalization) was a
// map[string] keyed by those renderings. This package replaces that
// representation with hash-consing: strings, label words over Σ, and
// (base, word) derived-type-variable pairs are interned once into a
// concurrency-safe table and thereafter identified by dense uint32 ids.
// Equality becomes integer comparison, map keys become small comparable
// structs, and the per-use rendering cost disappears — strings are
// resolved only at the serialization boundary.
//
// Three id kinds are issued:
//
//   - Sym interns a string (base type-variable names, and any other
//     identifier worth a dense id, such as lattice signatures);
//   - WordRef interns a word over the field-label alphabet Σ as a node
//     of a trie: a word is (parent word, last label), so appending a
//     label is a single lookup and the word's length and variance are
//     precomputed at creation;
//   - Ref interns a derived type variable as a (base Sym, path WordRef)
//     pair. The Ref table is prefix-closed — interning x.u.ℓ also
//     interns x.u — so Parent lookups are reads, never writes.
//
// Id 0 of each kind is reserved for the empty value ("" / ε / the zero
// derived type variable), which keeps zero values of wrapper types
// meaningful.
//
// # Concurrency: the snapshot read path
//
// The table is append-only and process-global (like the ids handed out
// by the runtime's own symbol interning, entries are never evicted);
// memory grows with the number of distinct names a process infers over,
// which is bounded by corpus size. Reads vastly outnumber first-time
// interns on warm workloads, and an RWMutex read path showed up as
// ~6–10% of inference cycles in sync/atomic (every RLock/RUnlock is an
// atomic RMW). The replacement read path takes no lock at all, split by
// direction:
//
//   - id → entry (StringOf, the DTV/Word attribute reads): the entry
//     arrays are append-only and entries are immutable, so the current
//     slice headers are republished through an atomic pointer after
//     every first-time intern (no copying — the backing arrays are
//     shared, and a published header never covers an index that is
//     still being written). These reads are one atomic pointer load
//     plus a bounds-checked slice index, always, even for an id minted
//     a nanosecond ago on another goroutine.
//   - key → id (the intern lookups): served from an immutable map
//     snapshot behind a second atomic pointer; misses fall back to the
//     mutex-guarded maps of keys interned since the snapshot, and the
//     snapshot is rebuilt (old snapshot plus those keys, which then
//     start afresh) once enough new entries (or enough locked fallback
//     hits) accumulate. Rebuilds copy the maps, so the threshold
//     scales with table size — amortized O(1) per intern, zero
//     rebuilds on a warm table. Every key lives in exactly one of the
//     two, so the table holds each key once however recently the
//     snapshot was rebuilt.
//
// # Wire forms
//
// Ids are process-local: the id assigned to a symbol depends on intern
// order, so ids must never be persisted or shipped across processes.
// For caches that outlive the process, the table renders ids to
// canonical bytes on export and re-interns them on import: a Sym's wire
// form is its string contents, a WordRef's is the concatenation of its
// labels' canonical encodings (label.AppendWire), precomputed at intern
// time so exporting is a copy. See AppendWordWire/DecodeWordWire and
// the encoders layered on top (constraints, pgraph, sketch, bodyfp).
package intern

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"sync/atomic"

	"retypd/internal/label"
)

// Sym is a dense id for an interned string. Sym 0 is "".
type Sym uint32

// WordRef is a dense id for an interned label word. WordRef 0 is ε.
type WordRef uint32

// Ref is a dense id for an interned (base, path) derived type variable.
// Ref 0 is the zero derived type variable ("", ε).
type Ref uint32

// wordKey identifies a word as a trie step from its prefix.
type wordKey struct {
	parent WordRef
	last   label.Label
}

// wordEntry stores a word's trie link plus the derived attributes that
// hot paths need in O(1): length, variance, and the canonical wire
// bytes (immutable once created).
type wordEntry struct {
	parent   WordRef
	last     label.Label
	depth    uint32
	variance label.Variance
	// wire is the concatenation of the member labels' canonical wire
	// encodings, front to back — the portable form of the word, shared
	// structurally with no length prefix (decoding is driven by depth).
	wire []byte
}

// dtvKey identifies a derived type variable by its parts.
type dtvKey struct {
	base Sym
	word WordRef
}

// dtvEntry stores a derived type variable's parts plus its parent Ref
// (valid when depth > 0), so Parent is one slice read.
type dtvEntry struct {
	base   Sym
	word   WordRef
	parent Ref
}

// idData is the published view of the id→entry direction: the current
// slice headers. The backing arrays are shared with the writer, which
// only ever appends — an element below a published length is immutable
// — so republishing after a write is allocating this small struct and
// one atomic store, never a copy.
type idData struct {
	strs  []string
	wents []wordEntry
	dents []dtvEntry
}

// mapData is one immutable snapshot of the key→id maps. The maps of a
// published snapshot are never written again.
type mapData struct {
	syms  map[string]Sym
	words map[wordKey]WordRef
	dtvs  map[dtvKey]Ref
}

func (d *mapData) size() int { return len(d.syms) + len(d.words) + len(d.dtvs) }

// Table is a concurrency-safe symbol table issuing dense ids for
// strings, label words, and derived-type-variable pairs. The zero value
// is not ready to use; call NewTable. Most callers want the
// process-global table reached through the package-level functions.
type Table struct {
	// ids is the always-current id→entry view (see idData); republished
	// under mu after every first-time intern, before the new id escapes.
	ids atomic.Pointer[idData]
	// read is the key→id map snapshot; possibly stale, misses fall back
	// to recent under mu.
	read atomic.Pointer[mapData]

	mu sync.Mutex
	// recent holds the keys interned since the current snapshot was
	// built, guarded by mu; its contents are disjoint from the
	// snapshot's, and the two together are authoritative.
	recent mapData
	// sinceRebuild counts writes and locked fallback hits since the
	// last snapshot rebuild; past rebuildAt the snapshot is rebuilt.
	sinceRebuild int
	rebuildAt    int
}

// rebuildFloor is the minimum interval (in writes + locked fallback
// hits) between map-snapshot rebuilds; the interval grows with table
// size so total copying stays amortized O(1) per intern.
const rebuildFloor = 1024

// NewTable returns a table pre-seeded with the empty string, the empty
// word, and the zero derived type variable at id 0.
func NewTable() *Table {
	t := &Table{
		recent: mapData{
			syms:  map[string]Sym{"": 0},
			words: map[wordKey]WordRef{},
			dtvs:  map[dtvKey]Ref{{}: 0},
		},
		rebuildAt: rebuildFloor,
	}
	t.read.Store(&mapData{})
	t.ids.Store(&idData{
		strs:  []string{""},
		wents: []wordEntry{{variance: label.Covariant}},
		dents: []dtvEntry{{}},
	})
	t.rebuildLocked()
	return t
}

// rebuildLocked publishes a fresh snapshot holding the current one's
// keys plus recent's, and starts recent afresh. Callers hold mu.
func (t *Table) rebuildLocked() {
	old := t.read.Load()
	snap := &mapData{
		syms:  make(map[string]Sym, len(old.syms)+len(t.recent.syms)),
		words: make(map[wordKey]WordRef, len(old.words)+len(t.recent.words)),
		dtvs:  make(map[dtvKey]Ref, len(old.dtvs)+len(t.recent.dtvs)),
	}
	for _, d := range []*mapData{old, &t.recent} {
		for k, v := range d.syms {
			snap.syms[k] = v
		}
		for k, v := range d.words {
			snap.words[k] = v
		}
		for k, v := range d.dtvs {
			snap.dtvs[k] = v
		}
	}
	t.read.Store(snap)
	t.recent = mapData{syms: map[string]Sym{}, words: map[wordKey]WordRef{}, dtvs: map[dtvKey]Ref{}}
	t.sinceRebuild = 0
	if at := snap.size(); at > rebuildFloor {
		t.rebuildAt = at
	} else {
		t.rebuildAt = rebuildFloor
	}
}

// note records one write or locked fallback hit and rebuilds the map
// snapshot when enough have accumulated. Callers hold mu.
func (t *Table) note() {
	t.sinceRebuild++
	if t.sinceRebuild >= t.rebuildAt {
		t.rebuildLocked()
	}
}

// publishIDs republishes the slice headers after appends. Callers hold
// mu and must call this before the new ids can escape to other
// goroutines (i.e. before unlocking).
func (t *Table) publishIDs(strs []string, wents []wordEntry, dents []dtvEntry) {
	t.ids.Store(&idData{strs: strs, wents: wents, dents: dents})
}

// global is the process-wide table used by the package-level functions
// (and, through them, by constraints.DTV).
var global = NewTable()

// SymBytes interns the string contents of b. On the warm path — the
// symbol already exists in the snapshot — no string is allocated: the
// map probe uses the compiler's no-copy []byte→string conversion. Only
// a first-time intern materializes the string.
func (t *Table) SymBytes(b []byte) Sym {
	if id, ok := t.read.Load().syms[string(b)]; ok {
		return id
	}
	return t.symSlow(string(b))
}

// Sym interns s.
func (t *Table) Sym(s string) Sym {
	if id, ok := t.read.Load().syms[s]; ok {
		return id
	}
	return t.symSlow(s)
}

func (t *Table) symSlow(s string) Sym {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.recent.syms[s]
	if !ok {
		// A rebuild since the caller's snapshot miss may have moved s.
		id, ok = t.read.Load().syms[s]
	}
	if !ok {
		ids := t.ids.Load()
		id = Sym(len(ids.strs))
		t.publishIDs(append(ids.strs, s), ids.wents, ids.dents)
		t.recent.syms[s] = id
	}
	t.note()
	return id
}

// StringOf resolves an interned string: one atomic load plus an index
// (the ids view is always current).
func (t *Table) StringOf(y Sym) string {
	return t.ids.Load().strs[y]
}

// appendWordLocked interns (w, l); the write lock must be held.
func (t *Table) appendWordLocked(w WordRef, l label.Label) WordRef {
	k := wordKey{parent: w, last: l}
	if id, ok := t.recent.words[k]; ok {
		return id
	}
	if id, ok := t.read.Load().words[k]; ok {
		return id
	}
	ids := t.ids.Load()
	pe := ids.wents[w]
	id := WordRef(len(ids.wents))
	wire := label.AppendWire(append([]byte(nil), pe.wire...), l)
	t.publishIDs(ids.strs, append(ids.wents, wordEntry{
		parent:   w,
		last:     l,
		depth:    pe.depth + 1,
		variance: pe.variance.Mul(l.Variance()),
		wire:     wire,
	}), ids.dents)
	t.recent.words[k] = id
	return id
}

// AppendLabel interns the word w·l.
func (t *Table) AppendLabel(w WordRef, l label.Label) WordRef {
	k := wordKey{parent: w, last: l}
	if id, ok := t.read.Load().words[k]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.appendWordLocked(w, l)
	t.note()
	return id
}

// Word interns a label slice as a word.
func (t *Table) Word(ls []label.Label) WordRef {
	w := WordRef(0)
	for _, l := range ls {
		w = t.AppendLabel(w, l)
	}
	return w
}

// wordEntryOf reads w's entry: lock-free, always current.
func (t *Table) wordEntryOf(w WordRef) wordEntry {
	return t.ids.Load().wents[w]
}

// WordLen reports |w|.
func (t *Table) WordLen(w WordRef) int { return int(t.wordEntryOf(w).depth) }

// WordVariance reports ⟨w⟩, precomputed at intern time.
func (t *Table) WordVariance(w WordRef) label.Variance { return t.wordEntryOf(w).variance }

// WordLabels materializes the labels of w, front to back. The returned
// slice is fresh and owned by the caller; it is nil for ε.
func (t *Table) WordLabels(w WordRef) []label.Label {
	e := t.wordEntryOf(w)
	if e.depth == 0 {
		return nil
	}
	out := make([]label.Label, e.depth)
	for i := int(e.depth) - 1; i >= 0; i-- {
		out[i] = e.last
		w = e.parent
		if i > 0 {
			e = t.wordEntryOf(w)
		}
	}
	return out
}

// AppendWordWire appends w's canonical wire form to buf: uvarint(|w|)
// followed by the member labels' label.AppendWire encodings, front to
// back. The form is a pure function of the word's labels — identical
// across processes — and precomputed at intern time, so this is a
// length append plus one copy.
func (t *Table) AppendWordWire(buf []byte, w WordRef) []byte {
	e := t.wordEntryOf(w)
	buf = binary.AppendUvarint(buf, uint64(e.depth))
	return append(buf, e.wire...)
}

// DecodeWordWire re-interns a word from the front of data, returning
// the bytes consumed.
func (t *Table) DecodeWordWire(data []byte) (WordRef, int, error) {
	depth, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, errors.New("intern: truncated word length")
	}
	w := WordRef(0)
	for i := uint64(0); i < depth; i++ {
		l, m, err := label.DecodeWire(data[n:])
		if err != nil {
			return 0, 0, err
		}
		n += m
		w = t.AppendLabel(w, l)
	}
	return w, n, nil
}

// internDTVLocked interns (base, w) and, recursively, every prefix pair
// so that Parent never has to write; the write lock must be held.
func (t *Table) internDTVLocked(base Sym, w WordRef) Ref {
	k := dtvKey{base: base, word: w}
	if id, ok := t.recent.dtvs[k]; ok {
		return id
	}
	if id, ok := t.read.Load().dtvs[k]; ok {
		return id
	}
	var parent Ref
	if we := t.ids.Load().wents[w]; we.depth > 0 {
		parent = t.internDTVLocked(base, we.parent)
	}
	ids := t.ids.Load()
	id := Ref(len(ids.dents))
	t.publishIDs(ids.strs, ids.wents, append(ids.dents, dtvEntry{base: base, word: w, parent: parent}))
	t.recent.dtvs[k] = id
	return id
}

// DTV interns the derived type variable (base, w).
func (t *Table) DTV(base Sym, w WordRef) Ref {
	if id, ok := t.read.Load().dtvs[dtvKey{base: base, word: w}]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.internDTVLocked(base, w)
	t.note()
	return id
}

// DTVAppend interns d.ℓ from an interned d — the hot derivation step —
// lock-free on the warm path (entry read from the current ids view,
// map probes from the snapshot).
func (t *Table) DTVAppend(d Ref, l label.Label) Ref {
	e := t.ids.Load().dents[d]
	p := t.read.Load()
	if w, ok := p.words[wordKey{parent: e.word, last: l}]; ok {
		if id, ok := p.dtvs[dtvKey{base: e.base, word: w}]; ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.appendWordLocked(e.word, l)
	id := t.internDTVLocked(e.base, w)
	t.note()
	return id
}

// DTVWithBase interns (base, path of d): the base-substitution step of
// scheme instantiation and canonical renaming.
func (t *Table) DTVWithBase(d Ref, base Sym) Ref {
	word := t.ids.Load().dents[d].word
	if id, ok := t.read.Load().dtvs[dtvKey{base: base, word: word}]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.internDTVLocked(base, word)
	t.note()
	return id
}

// dtvEntryOf reads d's entry: lock-free, always current.
func (t *Table) dtvEntryOf(d Ref) dtvEntry {
	return t.ids.Load().dents[d]
}

// DTVBase reports d's base symbol.
func (t *Table) DTVBase(d Ref) Sym { return t.dtvEntryOf(d).base }

// DTVWord reports d's path word.
func (t *Table) DTVWord(d Ref) WordRef { return t.dtvEntryOf(d).word }

// DTVDepth reports the length of d's path.
func (t *Table) DTVDepth(d Ref) int { return int(t.wordEntryOf(t.dtvEntryOf(d).word).depth) }

// DTVVariance reports ⟨path⟩ of d in O(1).
func (t *Table) DTVVariance(d Ref) label.Variance {
	return t.wordEntryOf(t.dtvEntryOf(d).word).variance
}

// DTVParent returns d's one-shorter prefix and the stripped label,
// reporting false for base variables. It never writes: the Ref table is
// prefix-closed by construction.
func (t *Table) DTVParent(d Ref) (Ref, label.Label, bool) {
	e := t.dtvEntryOf(d)
	we := t.wordEntryOf(e.word)
	if we.depth == 0 {
		return d, label.Label{}, false
	}
	return e.parent, we.last, true
}

// DTVString renders "base.l1.l2" in the paper's notation.
func (t *Table) DTVString(d Ref) string {
	e := t.dtvEntryOf(d)
	base := t.StringOf(e.base)
	we := t.wordEntryOf(e.word)
	if we.depth == 0 {
		return base
	}
	parts := make([]string, we.depth+1)
	parts[0] = base
	w := e.word
	for i := int(we.depth); i >= 1; i-- {
		ent := t.wordEntryOf(w)
		parts[i] = ent.last.String()
		w = ent.parent
	}
	return strings.Join(parts, ".")
}

// Stats reports the table's population (symbols, words, derived type
// variables) — observability for tests and tuning.
func (t *Table) Stats() (syms, words, dtvs int) {
	ids := t.ids.Load()
	return len(ids.strs), len(ids.wents), len(ids.dents)
}

// Package-level functions delegate to the process-global table.

// Intern interns s in the global table.
func Intern(s string) Sym { return global.Sym(s) }

// InternBytes interns b via the global table without allocating a
// string on the (common) already-interned path.
func InternBytes(b []byte) Sym { return global.SymBytes(b) }

// StringOf resolves y from the global table.
func StringOf(y Sym) string { return global.StringOf(y) }

// AppendLabel interns w·l in the global table.
func AppendLabel(w WordRef, l label.Label) WordRef { return global.AppendLabel(w, l) }

// Word interns a label slice in the global table.
func Word(ls []label.Label) WordRef { return global.Word(ls) }

// WordLen reports |w| from the global table.
func WordLen(w WordRef) int { return global.WordLen(w) }

// WordVariance reports ⟨w⟩ from the global table.
func WordVariance(w WordRef) label.Variance { return global.WordVariance(w) }

// WordLabels materializes w's labels from the global table.
func WordLabels(w WordRef) []label.Label { return global.WordLabels(w) }

// AppendWordWire appends w's canonical wire form from the global table.
func AppendWordWire(buf []byte, w WordRef) []byte { return global.AppendWordWire(buf, w) }

// DecodeWordWire re-interns a word wire form into the global table.
func DecodeWordWire(data []byte) (WordRef, int, error) { return global.DecodeWordWire(data) }

// DTV interns (base, w) in the global table.
func DTV(base Sym, w WordRef) Ref { return global.DTV(base, w) }

// DTVAppend interns d.ℓ in the global table.
func DTVAppend(d Ref, l label.Label) Ref { return global.DTVAppend(d, l) }

// DTVWithBase interns (base, path of d) in the global table.
func DTVWithBase(d Ref, base Sym) Ref { return global.DTVWithBase(d, base) }

// DTVBase reports d's base symbol from the global table.
func DTVBase(d Ref) Sym { return global.DTVBase(d) }

// DTVWord reports d's path word from the global table.
func DTVWord(d Ref) WordRef { return global.DTVWord(d) }

// DTVDepth reports d's path length from the global table.
func DTVDepth(d Ref) int { return global.DTVDepth(d) }

// DTVVariance reports ⟨path⟩ of d from the global table.
func DTVVariance(d Ref) label.Variance { return global.DTVVariance(d) }

// DTVParent returns d's prefix and last label from the global table.
func DTVParent(d Ref) (Ref, label.Label, bool) { return global.DTVParent(d) }

// DTVString renders d from the global table.
func DTVString(d Ref) string { return global.DTVString(d) }

// GlobalStats reports the global table's population.
func GlobalStats() (syms, words, dtvs int) { return global.Stats() }
