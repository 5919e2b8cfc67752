// Package lattice implements the customizable auxiliary lattice Λ of
// atomic types used to decorate sketches (Noonan et al., PLDI 2016,
// §3.5, Appendix E).
//
// Λ is an arbitrary finite lattice. Retypd parameterizes type inference
// by Λ so that end users can model ad-hoc subtyping hierarchies (§2.8):
// C primitive names, API typedefs (HANDLE, SOCKET, FILE), and
// domain-specific semantic tags such as #FileDescriptor or #SuccessZ.
//
// A Lattice is built from a Builder by declaring elements and covering
// relations; the Builder completes the order into a full lattice by
// synthesizing join/meet tables (adding ⊤ and ⊥ as needed). Elements are
// interned; the zero Elem is the bottom of its lattice.
package lattice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"retypd/internal/intern"
)

// Elem is an element of a Lattice, valid only with the Lattice that
// created it.
type Elem int32

// Lattice is a finite lattice of atomic types.
type Lattice struct {
	names []string
	index map[string]Elem
	// symIdx mirrors index keyed by interned symbol, so hot paths that
	// already hold a Sym can test constant-ness without materializing
	// the name.
	symIdx map[intern.Sym]Elem
	top    Elem
	bottom Elem
	// leq[a] is a bitset over elements b with a ≤ b.
	leq []bitset
	// join and meet are dense n×n tables.
	join []Elem
	meet []Elem
	// sig is a content hash of names + order, computed once by Build
	// (the lattice is immutable afterwards); see Signature.
	sig string
	// sigSym is sig interned in the process symbol table, so identity
	// checks and fingerprint mixing cost one uint32 instead of a
	// 64-byte string; see SigSym.
	sigSym intern.Sym
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) and(c bitset) bitset {
	out := make(bitset, len(b))
	for i := range b {
		out[i] = b[i] & c[i]
	}
	return out
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) iterate(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			f(wi*64 + i)
			w &^= 1 << uint(i)
		}
	}
}

// Builder accumulates elements and covering relations for a Lattice.
type Builder struct {
	names []string
	index map[string]int
	// above[i] lists declared j with i < j (direct subtype decls).
	above [][]int
}

// NewBuilder returns an empty Builder. "⊤" and "⊥" are implicitly
// present.
func NewBuilder() *Builder {
	b := &Builder{index: map[string]int{}}
	b.Add("⊥")
	b.Add("⊤")
	return b
}

// Add declares an element (idempotent) and returns the builder for
// chaining.
func (b *Builder) Add(name string) *Builder {
	if _, ok := b.index[name]; ok {
		return b
	}
	b.index[name] = len(b.names)
	b.names = append(b.names, name)
	b.above = append(b.above, nil)
	return b
}

// Below declares sub <: super, adding both elements if needed.
func (b *Builder) Below(sub, super string) *Builder {
	b.Add(sub)
	b.Add(super)
	b.above[b.index[sub]] = append(b.above[b.index[sub]], b.index[super])
	return b
}

// Build completes the declared order into a lattice. Every element is
// placed below ⊤ and above ⊥; joins and meets that are not unique in the
// declared DAG resolve to the least common ancestor set's minimum if
// unique, else ⊤ (for join) / ⊥ (for meet). Build reports an error if
// the declarations contain a cycle between distinct elements.
func (b *Builder) Build() (*Lattice, error) {
	n := len(b.names)
	l := &Lattice{
		names:  append([]string(nil), b.names...),
		index:  make(map[string]Elem, n),
		symIdx: make(map[intern.Sym]Elem, n),
	}
	for i, name := range l.names {
		l.index[name] = Elem(i)
		l.symIdx[intern.Intern(name)] = Elem(i)
	}
	l.bottom = l.index["⊥"]
	l.top = l.index["⊤"]

	// Reflexive-transitive closure of ≤ over the declaration DAG,
	// with ⊥ ≤ x ≤ ⊤ for all x.
	l.leq = make([]bitset, n)
	for i := 0; i < n; i++ {
		l.leq[i] = newBitset(n)
		l.leq[i].set(i)
		l.leq[i].set(int(l.top))
	}
	for i := 0; i < n; i++ {
		l.leq[int(l.bottom)].set(i)
	}
	// Floyd-Warshall-style closure (n is small: hundreds).
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			for _, j := range b.above[i] {
				for w := range l.leq[i] {
					add := l.leq[j][w] &^ l.leq[i][w]
					if add != 0 {
						l.leq[i][w] |= add
						changed = true
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && l.leq[i].has(j) && l.leq[j].has(i) {
				return nil, fmt.Errorf("lattice: cycle between %q and %q", l.names[i], l.names[j])
			}
		}
	}

	// Dense join/meet tables. join(a,b) = unique minimal common upper
	// bound if one exists, else ⊤. Dually for meet.
	geq := make([]bitset, n)
	for i := 0; i < n; i++ {
		geq[i] = newBitset(n)
	}
	for i := 0; i < n; i++ {
		l.leq[i].iterate(func(j int) { geq[j].set(i) })
	}
	l.join = make([]Elem, n*n)
	l.meet = make([]Elem, n*n)
	for a := 0; a < n; a++ {
		for c := a; c < n; c++ {
			ub := l.leq[a].and(l.leq[c])
			j := selectExtremum(ub, l.leq, l.top)
			l.join[a*n+c] = j
			l.join[c*n+a] = j
			lb := geq[a].and(geq[c])
			m := selectExtremum(lb, geq, l.bottom)
			l.meet[a*n+c] = m
			l.meet[c*n+a] = m
		}
	}

	// Content signature: element names plus the closed ≤ relation
	// identify the lattice's semantics completely (join/meet tables are
	// derived from them).
	h := sha256.New()
	for i, name := range l.names {
		fmt.Fprintf(h, "%d=%s;", i, name)
		for _, w := range l.leq[i] {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	l.sig = hex.EncodeToString(h.Sum(nil))
	l.sigSym = intern.Intern(l.sig)
	register(l)
	return l, nil
}

// registry maps lattice signatures to a representative built lattice of
// that signature. Persisted cache entries encode lattice elements by
// name plus the owning lattice's signature; decoding in a fresh process
// resolves the signature here, so any lattice the process has built is
// addressable. Two lattices with equal signatures have identical
// elements and ordering, so keeping the first one built is enough.
var (
	regMu    sync.RWMutex
	registry = map[string]*Lattice{}
)

func register(l *Lattice) {
	regMu.Lock()
	if _, ok := registry[l.sig]; !ok {
		registry[l.sig] = l
	}
	regMu.Unlock()
}

// BySignature returns a built lattice whose Signature equals sig, if
// any lattice with that signature has been built in this process.
// Decoders of persisted sketches use it to re-bind element names; an
// unknown signature means the entry cannot be used in this process
// (the matching lattice was never constructed) and is skipped.
func BySignature(sig string) (*Lattice, bool) {
	regMu.RLock()
	l, ok := registry[sig]
	regMu.RUnlock()
	return l, ok
}

// Signature returns a content hash identifying the lattice: two
// lattices with equal signatures have the same elements and ordering.
// Caches keyed on constraint-set fingerprints mix it in so entries
// computed under one lattice are never served to another.
func (l *Lattice) Signature() string { return l.sig }

// SigSym returns the signature as its interned symbol: a dense id with
// the same identification power as Signature within one process.
// Fingerprints mix it into cache keys instead of the hex string.
func (l *Lattice) SigSym() intern.Sym { return l.sigSym }

// selectExtremum picks the element of the candidate set that is below
// (w.r.t. rel) every other candidate, or fallback when no unique one
// exists.
func selectExtremum(cands bitset, rel []bitset, fallback Elem) Elem {
	best := -1
	cands.iterate(func(i int) {
		if best >= 0 {
			return
		}
		dominates := true
		cands.iterate(func(j int) {
			if !rel[i].has(j) {
				dominates = false
			}
		})
		if dominates {
			best = i
		}
	})
	if best < 0 {
		return fallback
	}
	return Elem(best)
}

// MustBuild is Build that panics on error; for statically known
// declarations.
func (b *Builder) MustBuild() *Lattice {
	l, err := b.Build()
	if err != nil {
		panic(err)
	}
	return l
}

// Top returns ⊤.
func (l *Lattice) Top() Elem { return l.top }

// Bottom returns ⊥.
func (l *Lattice) Bottom() Elem { return l.bottom }

// Size reports the number of elements.
func (l *Lattice) Size() int { return len(l.names) }

// Elem interns name, reporting whether it is present.
func (l *Lattice) Elem(name string) (Elem, bool) {
	e, ok := l.index[name]
	return e, ok
}

// ElemBytes is Elem for a name held as bytes (wire decoders), without
// materializing a string.
func (l *Lattice) ElemBytes(name []byte) (Elem, bool) {
	e, ok := l.index[string(name)]
	return e, ok
}

// ElemSym is Elem for an already-interned name: the constant test used
// by the solver's hot paths, with no string materialization.
func (l *Lattice) ElemSym(y intern.Sym) (Elem, bool) {
	e, ok := l.symIdx[y]
	return e, ok
}

// MustElem returns the element named name, panicking if absent.
func (l *Lattice) MustElem(name string) Elem {
	e, ok := l.index[name]
	if !ok {
		panic(fmt.Sprintf("lattice: no element %q", name))
	}
	return e
}

// Name returns the display name of e.
func (l *Lattice) Name(e Elem) string { return l.names[e] }

// Leq reports a ≤ b.
func (l *Lattice) Leq(a, b Elem) bool { return l.leq[a].has(int(b)) }

// Join returns a ∨ b.
func (l *Lattice) Join(a, b Elem) Elem { return l.join[int(a)*len(l.names)+int(b)] }

// Meet returns a ∧ b.
func (l *Lattice) Meet(a, b Elem) Elem { return l.meet[int(a)*len(l.names)+int(b)] }

// JoinAll folds Join over elems, starting from ⊥.
func (l *Lattice) JoinAll(elems ...Elem) Elem {
	out := l.bottom
	for _, e := range elems {
		out = l.Join(out, e)
	}
	return out
}

// MeetAll folds Meet over elems, starting from ⊤.
func (l *Lattice) MeetAll(elems ...Elem) Elem {
	out := l.top
	for _, e := range elems {
		out = l.Meet(out, e)
	}
	return out
}

// Antichain reduces elems to its maximal antichain of minimal elements:
// comparable pairs are merged by keeping the smaller element, as used by
// the union-type policy (Example 4.2).
func (l *Lattice) Antichain(elems []Elem) []Elem {
	var out []Elem
	for _, e := range elems {
		keep := true
		for i := 0; i < len(out); i++ {
			if l.Leq(out[i], e) {
				keep = false
				break
			}
			if l.Leq(e, out[i]) {
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
				i--
			}
		}
		if keep {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Elements returns all element names in intern order (for tests and
// property checks).
func (l *Lattice) Elements() []Elem {
	out := make([]Elem, len(l.names))
	for i := range out {
		out[i] = Elem(i)
	}
	return out
}

// String summarizes the lattice size.
func (l *Lattice) String() string {
	return fmt.Sprintf("Λ(%d elements)", len(l.names))
}

// FormatElem renders joins/meets of elements for display, e.g.
// "int ∨ #SuccessZ".
func FormatElem(l *Lattice, e Elem) string { return l.Name(e) }

// FormatJoin renders a display string "a ∨ b ∨ …".
func FormatJoin(l *Lattice, es []Elem) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = l.Name(e)
	}
	return strings.Join(parts, " ∨ ")
}
