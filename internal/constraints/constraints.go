// Package constraints implements the syntax of the Retypd constraint
// type system (Noonan et al., PLDI 2016, §3.1): derived type variables
// (Definition 3.1), subtype and capability constraints (Definition 3.3),
// the 3-place additive constraints of Appendix A.6/Figure 13, constraint
// sets, and recursively constrained type schemes (Definition 3.4).
//
// Derived type variables are interned: a DTV is a 4-byte handle into
// the process-wide symbol table of internal/intern, so DTV equality is
// integer equality, DTVs key maps directly without rendering, and the
// derivation step d ↦ d.ℓ is a hash-cons lookup instead of a slice
// copy. Strings are materialized only at the serialization boundary
// (String, the parsers, and the display pipeline).
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"retypd/internal/intern"
	"retypd/internal/label"
)

// Var is a base type variable. By convention, type constants (elements
// of Λ rendered symbolically, §3.1) are Vars whose name matches a
// lattice element and are recognized by the solver via its lattice.
type Var string

// DTV is a derived type variable: a base variable extended by a word of
// field labels (Definition 3.1). It is an interned handle — comparable,
// 4 bytes, usable as a map key — whose parts live in the intern table.
// The zero DTV is the empty derived type variable (empty base, ε path).
type DTV struct {
	ref intern.Ref
}

// MakeDTV builds Base.l1.l2...
func MakeDTV(base Var, labels ...label.Label) DTV {
	return DTV{ref: intern.DTV(intern.Intern(string(base)), intern.Word(labels))}
}

// BaseDTV builds the label-free derived type variable of base.
func BaseDTV(base Var) DTV {
	return DTV{ref: intern.DTV(intern.Intern(string(base)), 0)}
}

// Append returns d.l as a fresh derived type variable.
func (d DTV) Append(l label.Label) DTV {
	return DTV{ref: intern.DTVAppend(d.ref, l)}
}

// Concat returns d.w.
func (d DTV) Concat(w label.Word) DTV {
	out := d
	for _, l := range w {
		out = out.Append(l)
	}
	return out
}

// WithBase returns d with its base variable replaced and its path kept:
// the substitution step of scheme instantiation and canonical renaming.
func (d DTV) WithBase(base Var) DTV {
	return DTV{ref: intern.DTVWithBase(d.ref, intern.Intern(string(base)))}
}

// withBaseSym is WithBase for an already-interned base.
func (d DTV) withBaseSym(base intern.Sym) DTV {
	return DTV{ref: intern.DTVWithBase(d.ref, base)}
}

// Parent returns the one-shorter prefix of d and reports whether d had
// any labels to strip.
func (d DTV) Parent() (DTV, label.Label, bool) {
	p, l, ok := intern.DTVParent(d.ref)
	return DTV{ref: p}, l, ok
}

// IsBase reports whether d carries no labels.
func (d DTV) IsBase() bool { return intern.DTVDepth(d.ref) == 0 }

// Base returns d's base variable, resolved from the intern table.
func (d DTV) Base() Var { return Var(intern.StringOf(intern.DTVBase(d.ref))) }

// BaseSym returns d's base variable as its interned symbol; hot paths
// key maps by it without materializing the name.
func (d DTV) BaseSym() intern.Sym { return intern.DTVBase(d.ref) }

// Path materializes d's label word. The slice is fresh; mutating it
// does not affect d.
func (d DTV) Path() label.Word { return label.Word(intern.WordLabels(intern.DTVWord(d.ref))) }

// PathLen reports the length of d's label word in O(1).
func (d DTV) PathLen() int { return intern.DTVDepth(d.ref) }

// PathRef reports d's label word as its interned id.
func (d DTV) PathRef() intern.WordRef { return intern.DTVWord(d.ref) }

// Variance reports ⟨path⟩, the variance of d's label word, precomputed
// at intern time.
func (d DTV) Variance() label.Variance { return intern.DTVVariance(d.ref) }

// Equal reports structural equality; interning makes it d == e.
func (d DTV) Equal(e DTV) bool { return d == e }

// String renders "base.l1.l2" in the paper's notation.
func (d DTV) String() string { return intern.DTVString(d.ref) }

// ParseDTV parses the String form. Base variable names may not contain
// '.'.
func ParseDTV(s string) (DTV, error) {
	parts := strings.Split(s, ".")
	if parts[0] == "" {
		return DTV{}, fmt.Errorf("constraints: empty base variable in %q", s)
	}
	d := BaseDTV(Var(parts[0]))
	for _, p := range parts[1:] {
		l, err := label.Parse(p)
		if err != nil {
			return DTV{}, err
		}
		d = d.Append(l)
	}
	return d, nil
}

// Constraint is either a subtype constraint L ⊑ R, or an additive
// constraint Add/Sub(X, Y; Z) (Appendix A.6). Capability constraints
// VAR d are represented as d ⊑ d (reflexivity registers the derived
// variable and all its prefixes with the solver). Constraints are
// comparable values (interned DTVs plus a kind tag) and key the
// constraint-set dedup index directly; build them with the
// constructors, which leave unused operands zero.
type Constraint struct {
	Kind ConstraintKind
	// Sub constraint operands.
	L, R DTV
	// Additive constraint operands (X op Y = Z).
	X, Y, Z DTV
}

// ConstraintKind discriminates Constraint.
type ConstraintKind uint8

const (
	// KindSub is L ⊑ R.
	KindSub ConstraintKind = iota
	// KindAdd is Add(X, Y; Z): Z = X + Y at the value level.
	KindAdd
	// KindSubtract is Sub(X, Y; Z): Z = X - Y at the value level.
	KindSubtract
)

// Sub returns the subtype constraint l ⊑ r.
func Sub(l, r DTV) Constraint { return Constraint{Kind: KindSub, L: l, R: r} }

// HasVar returns the capability constraint VAR d, encoded as d ⊑ d.
func HasVar(d DTV) Constraint { return Constraint{Kind: KindSub, L: d, R: d} }

// Add returns the additive constraint Add(x, y; z).
func Add(x, y, z DTV) Constraint { return Constraint{Kind: KindAdd, X: x, Y: y, Z: z} }

// Subtract returns the additive constraint Sub(x, y; z).
func Subtract(x, y, z DTV) Constraint { return Constraint{Kind: KindSubtract, X: x, Y: y, Z: z} }

// String renders the constraint in the paper's ASCII notation.
func (c Constraint) String() string {
	switch c.Kind {
	case KindSub:
		return c.L.String() + " <= " + c.R.String()
	case KindAdd:
		return fmt.Sprintf("Add(%s, %s; %s)", c.X, c.Y, c.Z)
	case KindSubtract:
		return fmt.Sprintf("Sub(%s, %s; %s)", c.X, c.Y, c.Z)
	default:
		return fmt.Sprintf("constraint(%d)", c.Kind)
	}
}

// ParseConstraint parses "l <= r" (also accepting "⊑" and "<:") and
// "Add(x, y; z)" / "Sub(x, y; z)".
func ParseConstraint(s string) (Constraint, error) {
	s = strings.TrimSpace(s)
	for _, pre := range []struct {
		prefix string
		kind   ConstraintKind
	}{{"Add(", KindAdd}, {"Sub(", KindSubtract}} {
		if strings.HasPrefix(s, pre.prefix) && strings.HasSuffix(s, ")") {
			body := s[len(pre.prefix) : len(s)-1]
			semi := strings.IndexByte(body, ';')
			if semi < 0 {
				return Constraint{}, fmt.Errorf("constraints: malformed additive constraint %q", s)
			}
			args := strings.Split(body[:semi], ",")
			if len(args) != 2 {
				return Constraint{}, fmt.Errorf("constraints: additive constraint needs 2 sources: %q", s)
			}
			x, err := ParseDTV(strings.TrimSpace(args[0]))
			if err != nil {
				return Constraint{}, err
			}
			y, err := ParseDTV(strings.TrimSpace(args[1]))
			if err != nil {
				return Constraint{}, err
			}
			z, err := ParseDTV(strings.TrimSpace(body[semi+1:]))
			if err != nil {
				return Constraint{}, err
			}
			return Constraint{Kind: pre.kind, X: x, Y: y, Z: z}, nil
		}
	}
	for _, sep := range []string{"⊑", "<=", "<:"} {
		if i := strings.Index(s, sep); i >= 0 {
			l, err := ParseDTV(strings.TrimSpace(s[:i]))
			if err != nil {
				return Constraint{}, err
			}
			r, err := ParseDTV(strings.TrimSpace(s[i+len(sep):]))
			if err != nil {
				return Constraint{}, err
			}
			return Sub(l, r), nil
		}
	}
	return Constraint{}, fmt.Errorf("constraints: cannot parse %q", s)
}

// Set is a deduplicated constraint set over some collection of type
// variables (Definition 3.3). The zero value is ready to use.
// Deduplication keys a precomputed 64-bit hash of the comparable
// Constraint value — mixing the kind tag and the five interned operand
// handles — with a full-key equality check on hash equality, so the
// runtime never hashes the 24-byte struct itself (the aeshash over
// large map keys that used to dominate insert-heavy profiles). Same
// collision discipline as internal/lru: the hash only groups, equality
// decides.
type Set struct {
	list []Constraint
	// seen maps a constraint's hash64 to its index in list; collide
	// chains the (rare) later entries whose hashes coincide with an
	// earlier one's. seen == nil means the index has not been
	// materialized (SubstituteBases fast paths hand out lists that are
	// already distinct); the first mutation rebuilds it.
	seen    map[uint64]int32
	collide map[uint64][]int32
}

// hash64 mixes the constraint into a 64-bit dedup key. Operands are
// 4-byte interned handles, so two multiply-xor rounds over packed
// halves plus a splitmix64-style finalizer give full avalanche without
// touching memory.
func (c Constraint) hash64() uint64 {
	h := uint64(c.Kind) + 0x9e3779b97f4a7c15
	h = (h ^ (uint64(c.L.ref)<<32 | uint64(c.R.ref))) * 0x100000001b3
	h = (h ^ (uint64(c.X.ref)<<32 | uint64(c.Y.ref))) * 0x100000001b3
	h = (h ^ uint64(c.Z.ref)) * 0x100000001b3
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// buildIndex materializes the membership index over list, which is
// already deduplicated by invariant.
func (s *Set) buildIndex() {
	s.seen = make(map[uint64]int32, len(s.list)+1)
	for i, old := range s.list {
		h := old.hash64()
		if _, ok := s.seen[h]; ok {
			if s.collide == nil {
				s.collide = map[uint64][]int32{}
			}
			s.collide[h] = append(s.collide[h], int32(i))
		} else {
			s.seen[h] = int32(i)
		}
	}
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// ParseSet parses one constraint per line; blank lines and lines
// starting with "//" or ";" are skipped. Intended for tests and
// examples written in the paper's notation.
func ParseSet(text string) (*Set, error) {
	s := NewSet()
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, ";") {
			continue
		}
		c, err := ParseConstraint(line)
		if err != nil {
			return nil, err
		}
		s.Insert(c)
	}
	return s, nil
}

// MustParseSet panics on parse errors; for statically known text.
func MustParseSet(text string) *Set {
	s, err := ParseSet(text)
	if err != nil {
		panic(err)
	}
	return s
}

// Insert adds c if not already present and reports whether it was new.
func (s *Set) Insert(c Constraint) bool {
	if s.seen == nil {
		// Sets produced by the SubstituteBases fast paths carry a list
		// of already-distinct constraints and no index; build it on the
		// first mutation that needs one.
		s.buildIndex()
	}
	h := c.hash64()
	if i, ok := s.seen[h]; ok {
		if s.list[i] == c {
			return false
		}
		for _, j := range s.collide[h] {
			if s.list[j] == c {
				return false
			}
		}
		if s.collide == nil {
			s.collide = map[uint64][]int32{}
		}
		s.collide[h] = append(s.collide[h], int32(len(s.list)))
		s.list = append(s.list, c)
		return true
	}
	s.seen[h] = int32(len(s.list))
	s.list = append(s.list, c)
	return true
}

// AddSub is shorthand for Insert(Sub(l, r)).
func (s *Set) AddSub(l, r DTV) bool { return s.Insert(Sub(l, r)) }

// InsertAll merges other into s.
func (s *Set) InsertAll(other *Set) {
	if other == nil {
		return
	}
	for _, c := range other.list {
		s.Insert(c)
	}
}

// Constraints returns the constraints in insertion order. The slice is
// shared; callers must not mutate it.
func (s *Set) Constraints() []Constraint {
	if s == nil {
		return nil
	}
	return s.list
}

// Subtypes returns only the subtype constraints.
func (s *Set) Subtypes() []Constraint {
	var out []Constraint
	for _, c := range s.list {
		if c.Kind == KindSub {
			out = append(out, c)
		}
	}
	return out
}

// EachSubtype invokes f on every subtype constraint in insertion order
// without allocating (the hot-loop variant of Subtypes).
func (s *Set) EachSubtype(f func(Constraint)) {
	if s == nil {
		return
	}
	for _, c := range s.list {
		if c.Kind == KindSub {
			f(c)
		}
	}
}

// Additive returns only the Add/Sub constraints.
func (s *Set) Additive() []Constraint {
	var out []Constraint
	for _, c := range s.list {
		if c.Kind != KindSub {
			out = append(out, c)
		}
	}
	return out
}

// Len reports the number of constraints.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.list)
}

// Has reports membership.
func (s *Set) Has(c Constraint) bool {
	if s == nil {
		return false
	}
	if s.seen == nil {
		// Unindexed sets (SubstituteBases fast-path output) may be read
		// concurrently; scan rather than mutate.
		for _, old := range s.list {
			if old == c {
				return true
			}
		}
		return false
	}
	h := c.hash64()
	if i, ok := s.seen[h]; ok {
		if s.list[i] == c {
			return true
		}
		for _, j := range s.collide[h] {
			if s.list[j] == c {
				return true
			}
		}
	}
	return false
}

// Vars returns the set of base variables mentioned, sorted.
func (s *Set) Vars() []Var {
	seen := map[intern.Sym]struct{}{}
	add := func(d DTV) {
		if y := d.BaseSym(); y != 0 {
			seen[y] = struct{}{}
		}
	}
	for _, c := range s.list {
		add(c.L)
		add(c.R)
		add(c.X)
		add(c.Y)
		add(c.Z)
	}
	out := make([]Var, 0, len(seen))
	for y := range seen {
		out = append(out, Var(intern.StringOf(y)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep-enough copy (constraints are immutable values).
func (s *Set) Clone() *Set {
	out := NewSet()
	out.InsertAll(s)
	return out
}

// substMemoSmall bounds the linear-scan rename memo of SubstituteBases;
// past it the memo spills into a map. Generated constraint sets
// typically mention a handful to a few dozen distinct bases, so the
// common case never touches a hash table at all.
const substMemoSmall = 24

// SubstituteBases rewrites every base variable through f (used for
// callsite tagging and scheme instantiation, §A.4). f's results are
// memoized per base symbol, so the rename is computed once per variable
// rather than once per occurrence.
//
// Two fast paths keep this off the map-hashing profile: the per-symbol
// memo is a small linear-scanned vector (no per-occurrence map lookup
// on the common no-substitution and few-variables paths), and when the
// rename is the identity or injective over the set's bases the output
// list is built directly — a deduplicated input stays deduplicated, so
// the output's membership index is rebuilt lazily only if someone later
// mutates it.
func (s *Set) SubstituteBases(f func(Var) Var) *Set {
	if s == nil || len(s.list) == 0 {
		return NewSet()
	}
	var (
		keys    [substMemoSmall]intern.Sym
		vals    [substMemoSmall]intern.Sym
		nk      int
		big     map[intern.Sym]intern.Sym
		changed bool
	)
	lookup := func(y intern.Sym) intern.Sym {
		if big != nil {
			if ny, ok := big[y]; ok {
				return ny
			}
		} else {
			for i := 0; i < nk; i++ {
				if keys[i] == y {
					return vals[i]
				}
			}
		}
		ny := intern.Intern(string(f(Var(intern.StringOf(y)))))
		if ny != y {
			changed = true
		}
		switch {
		case big != nil:
			big[y] = ny
		case nk < substMemoSmall:
			keys[nk], vals[nk] = y, ny
			nk++
		default:
			big = make(map[intern.Sym]intern.Sym, 2*substMemoSmall)
			for i := 0; i < nk; i++ {
				big[keys[i]] = vals[i]
			}
			big[y] = ny
		}
		return ny
	}
	sub := func(d DTV) DTV {
		y := d.BaseSym()
		ny := lookup(y)
		if ny == y {
			return d
		}
		return d.withBaseSym(ny)
	}
	list := make([]Constraint, 0, len(s.list))
	for _, c := range s.list {
		switch c.Kind {
		case KindSub:
			list = append(list, Sub(sub(c.L), sub(c.R)))
		default:
			list = append(list, Constraint{Kind: c.Kind, X: sub(c.X), Y: sub(c.Y), Z: sub(c.Z)})
		}
	}
	if !changed || substInjective(vals[:nk], big) {
		// Distinct constraints map to distinct constraints: the list is
		// already a valid set; membership index materializes lazily.
		return &Set{list: list}
	}
	// A non-injective rename may have collapsed constraints; rebuild
	// with full deduplication.
	out := NewSet()
	for _, c := range list {
		out.Insert(c)
	}
	return out
}

// substInjective reports whether the collected base rename maps
// distinct sources to distinct targets (then DTVs, and hence
// constraints, cannot collide under it).
func substInjective(small []intern.Sym, big map[intern.Sym]intern.Sym) bool {
	if big != nil {
		seen := make(map[intern.Sym]struct{}, len(big))
		for _, ny := range big {
			if _, dup := seen[ny]; dup {
				return false
			}
			seen[ny] = struct{}{}
		}
		return true
	}
	for i := range small {
		for j := i + 1; j < len(small); j++ {
			if small[i] == small[j] {
				return false
			}
		}
	}
	return true
}

// String renders one constraint per line, sorted, for stable output.
func (s *Set) String() string {
	lines := make([]string, 0, s.Len())
	for _, c := range s.Constraints() {
		lines = append(lines, c.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Scheme is a recursively constrained type scheme ∀α.C ⇒ Root
// (Definition 3.4). Existential ("internal") variables synthesized by
// constraint simplification are listed in Existential; all other
// non-Root, non-constant variables in C are universally quantified.
type Scheme struct {
	// Root is the type variable the scheme describes (a procedure).
	Root Var
	// Constraints is the simplified constraint set C.
	Constraints *Set
	// Existential lists variables bound by ∃ inside C (Figure 2's τ).
	Existential []Var
}

// String renders "∀F. (∃τ. C) ⇒ F" with C inline.
func (sc *Scheme) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "∀%s.", sc.Root)
	if len(sc.Existential) > 0 {
		ex := make([]string, len(sc.Existential))
		for i, v := range sc.Existential {
			ex[i] = string(v)
		}
		fmt.Fprintf(&b, " (∃%s.", strings.Join(ex, ","))
	}
	cs := sc.Constraints.String()
	if cs == "" {
		cs = "⊤"
	}
	fmt.Fprintf(&b, " {%s}", strings.ReplaceAll(cs, "\n", " ∧ "))
	if len(sc.Existential) > 0 {
		b.WriteString(")")
	}
	fmt.Fprintf(&b, " ⇒ %s", sc.Root)
	return b.String()
}

// Reroot returns cs with base variable from renamed to, and a copy of
// existential. For a closed scheme (see Closed) this one substitution
// is all it takes to describe another root: the scheme mentions no
// other name of its procedure. The results share nothing mutable with
// the inputs.
func Reroot(cs *Set, existential []Var, from, to Var) (*Set, []Var) {
	out := cs.SubstituteBases(func(v Var) Var {
		if v == from {
			return to
		}
		return v
	})
	return out, append([]Var(nil), existential...)
}

// Closed reports whether every base variable of cs is root, one of
// existential, or a constant (isConst). Simplification relative to
// {root} names every other state with a fresh existential, so every
// scheme it produces is closed.
func Closed(cs *Set, root Var, existential []Var, isConst func(intern.Sym) bool) bool {
	bound := make(map[intern.Sym]bool, len(existential)+1)
	bound[intern.Intern(string(root))] = true
	for _, v := range existential {
		bound[intern.Intern(string(v))] = true
	}
	for _, c := range cs.Constraints() {
		for _, d := range [...]DTV{c.L, c.R, c.X, c.Y, c.Z} {
			if y := d.BaseSym(); y != 0 && !bound[y] && !isConst(y) {
				return false
			}
		}
	}
	return true
}
