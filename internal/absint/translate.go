package absint

import (
	"strconv"
	"strings"

	"retypd/internal/constraints"
)

// This file is the rename side of whole-procedure body deduplication
// (internal/bodyfp): when two procedures have equivalent bodies, the
// constraint vocabulary Generate mints for one translates into the
// other's by pure name surgery, because every variable this package
// creates is a deterministic function of the procedure name, the
// instruction stream, and the call targets:
//
//	<proc>                      the procedure's own type variable
//	<proc>!<reg>@<idx>          a register definition site (defVar)
//	<proc>!s<slot>@<idx>        a stack-slot definition site (defVar)
//	<proc>!frm!<param>          a formal's entry definition (frmVar)
//	<proc>!rgn<n>               an address-taken frame region
//	<proc>!u<idx>!<key>         a use-site merge intermediate
//	<proc>!zero                 the §2.1-ablation zero pseudo-variable
//	<base>@<proc>!<idx>         a callsite-tagged instantiation of a
//	                            callee-scheme variable (emitCall): base
//	                            is the callee's root (its name), one of
//	                            its existentials, or a summary variable
//	<callee>                    a bare callee interface variable
//	                            (monomorphic or same-SCC linking)
//
// A Renamer rewrites each form for a new procedure name, mapping callee
// names through the callsite correspondence the body fingerprint
// established. Anything it cannot positively classify makes the whole
// translation fail (Apply returns ok == false) rather than guess — the
// solver then falls back to running Generate for real.

// CallRename is one callsite's target correspondence: the procedure
// being translated from calls From at instruction Inst where the target
// procedure calls To.
type CallRename struct {
	Inst     int
	From, To string
}

// Renamer translates base variables minted for one procedure into the
// corresponding variables of a body-equivalent procedure.
type Renamer struct {
	from, to         string
	fromBang, toBang string
	calleeAt         map[int]CallRename
	calleeByName     map[string]string
	// isProc reports whether a name is a program procedure (optional).
	// Used to refuse, rather than keep, a program-procedure variable
	// that appears where only the callsite's own callee, a simplifier
	// existential, or an external/summary name belongs: such a variable
	// is a foreign leak whose member-side counterpart this renamer
	// cannot know (the same conservatism pgraph's canonicalize applies
	// before caching a scheme).
	isProc func(string) bool
	valid  bool
}

// NewRenamer builds a renamer from procedure from to procedure to,
// with the callsite correspondence calls. isProc (optional) identifies
// program-procedure names for the foreign-leak refusal described on
// Renamer. It returns a renamer with Valid() == false when the
// correspondence is inconsistent (one From name would have to map to
// two different To names — impossible for bodies grouped by bodyfp,
// which encodes the name-repetition pattern, but checked rather than
// assumed).
func NewRenamer(from, to string, calls []CallRename, isProc func(string) bool) *Renamer {
	r := &Renamer{
		from: from,
		to:   to,
		// The two prefixes below match and splice names the generator
		// already minted through NameBuilder; the grammar table at the
		// top of this file is the contract that keeps them in sync.
		fromBang:     from + "!", //retypd:name-ok match/splice prefix per the grammar table
		toBang:       to + "!",   //retypd:name-ok match/splice prefix per the grammar table
		calleeAt:     make(map[int]CallRename, len(calls)),
		calleeByName: make(map[string]string, len(calls)),
		isProc:       isProc,
		valid:        true,
	}
	for _, c := range calls {
		r.calleeAt[c.Inst] = c
		if prev, ok := r.calleeByName[c.From]; ok && prev != c.To {
			r.valid = false
		}
		r.calleeByName[c.From] = c.To
	}
	return r
}

// Valid reports whether the callsite correspondence was consistent.
func (r *Renamer) Valid() bool { return r.valid }

// Rename translates one base variable, reporting whether it could be
// positively classified. Lattice constants and foreign variables are
// returned unchanged with ok == true: they appear identically in the
// target procedure's vocabulary.
func (r *Renamer) Rename(v constraints.Var) (constraints.Var, bool) {
	s := string(v)
	if s == r.from {
		return constraints.Var(r.to), true
	}
	if strings.HasPrefix(s, r.fromBang) {
		// A procedure-local variable: swap the name prefix. (This case
		// must run before the tag case — defVar names contain '@' too.)
		return constraints.Var(r.to + s[len(r.from):]), true
	}
	if i := strings.IndexByte(s, '@'); i >= 0 {
		// A callsite-tagged variable <base>@<from>!<idx>.
		head, tail := s[:i], s[i+1:]
		if !strings.HasPrefix(tail, r.fromBang) {
			return v, false
		}
		idxStr := tail[len(r.fromBang):]
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			return v, false
		}
		if c, ok := r.calleeAt[idx]; ok && head == c.From {
			head = c.To
		} else if r.isProc != nil && r.isProc(head) {
			// A program procedure other than this callsite's callee was
			// instantiated here: a variable leaked through the callee's
			// simplified scheme. Its member-side name is unknowable
			// from the callsite correspondence — refuse, don't guess.
			// (The current simplifier never emits such schemes — every
			// non-root internal variable becomes a τ existential — so
			// this is the same defense-in-depth as canonicalize's
			// foreign-variable check on the scheme cache.)
			return v, false
		}
		//retypd:name-ok rename surgery reassembles grammar-conformant pieces of an existing name
		return constraints.Var(head + "@" + r.toBang + idxStr), true
	}
	if to, ok := r.calleeByName[s]; ok {
		// A bare callee interface variable (monomorphic linking).
		return constraints.Var(to), true
	}
	if r.isProc != nil && r.isProc(s) {
		// A bare program-procedure variable the translated procedure
		// does not call: a foreign leak (see above) — refuse.
		return v, false
	}
	return v, true
}

// Apply translates a whole constraint set, reporting whether every
// base variable was positively classified. On ok == false the returned
// set must be discarded.
func (r *Renamer) Apply(cs *constraints.Set) (*constraints.Set, bool) {
	if !r.valid {
		return nil, false
	}
	ok := true
	out := cs.SubstituteBases(func(v constraints.Var) constraints.Var {
		nv, vok := r.Rename(v)
		if !vok {
			ok = false
		}
		return nv
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// TranslateScheme derives the body-equivalent procedure's type scheme
// from the representative's. The existential list is copied verbatim:
// simplification numbers its τ variables structurally, so isomorphic
// constraint sets synthesize identical existential names.
func (r *Renamer) TranslateScheme(sc *constraints.Scheme) (*constraints.Scheme, bool) {
	cs, ok := r.Apply(sc.Constraints)
	if !ok {
		return nil, false
	}
	root, ok := r.Rename(sc.Root)
	if !ok {
		return nil, false
	}
	return &constraints.Scheme{
		Root:        root,
		Constraints: cs,
		Existential: append([]constraints.Var(nil), sc.Existential...),
	}, true
}
