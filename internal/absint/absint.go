// Package absint is the constraint-generating abstract interpreter
// TYPE_A of the paper (Appendix A): it walks each procedure's
// instructions with a flow-sensitive value abstraction (constants,
// stack addresses, typed values with byte offsets — the t.+n
// translation tracking of §A.2) layered over reaching definitions, and
// emits subtype constraints:
//
//   - value copies emit Y ⊑ X upcasts (§3.1);
//   - loads and stores emit P.load.σN@k ⊑ X and Y ⊑ Q.store.σN@k;
//   - additions and subtractions of non-constants emit the 3-place
//     Add/Sub constraints of §A.6;
//   - procedure calls instantiate the callee's type scheme with a fresh
//     callsite tag (§A.4), which yields let-polymorphism for malloc-like
//     functions;
//   - the §2.1/§A.5.2 idioms (xor r,r, push of a zero, or r,-1,
//     pointer-alignment masks, flag-only computations) are special-cased
//     so that semi-syntactic constants never pollute type variables.
//
// Stack locals whose address is taken are grouped into frame regions
// with a region type variable (the "bare minimum points-to analysis
// that only tracks constant pointers to the local activation record" of
// §A.3).
package absint

import (
	"sort"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/intern"
	"retypd/internal/label"
	"retypd/internal/summaries"
)

// Options configures constraint generation; the zero value is the
// paper-faithful configuration with polymorphism and constant
// suppression enabled.
type Options struct {
	// MonomorphicCalls disables callsite tagging: callee interface
	// variables are shared by all callers (the unification and
	// TIE-style baselines' treatment of procedures).
	MonomorphicCalls bool
	// PolymorphicExternals keeps callsite tags on external summaries
	// even under MonomorphicCalls: baselines model known libc
	// signatures (and allocation sites) per callsite, as REWARDS,
	// TIE and SecondWrite all do.
	PolymorphicExternals bool
	// NoConstantSuppression disables the §2.1 semi-syntactic constant
	// handling; zero constants then generate copy constraints through a
	// shared pseudo-variable, modeling the false unification hazard.
	NoConstantSuppression bool
	// Covered, when non-nil, restricts generation to instructions for
	// which it returns true (the REWARDS-style dynamic-trace baseline).
	Covered func(proc string, idx int) bool
	// SCCSlot, when positive, is the procedure's 1-based position in
	// the strongly connected component being solved, and scopes every
	// variable Generate mints (see gen.local) instead of the
	// procedure's name. The names then recur across procedures and
	// programs, so a long-lived engine interns them once. Zero scopes
	// by the procedure's name, which keeps the generated sets of a
	// whole program distinct when they are unioned. The solver sets it;
	// the minted names reach no output.
	SCCSlot int
}

// CallSite records one call instruction's instantiation.
type CallSite struct {
	Caller string
	Inst   int
	Callee string
	// Root is the base variable the callee interface was instantiated
	// at: the callsite variable (named by the caller's scope and the
	// instruction index alone) for a polymorphic instantiation, the
	// callee's own name for a same-SCC or monomorphic link.
	Root constraints.Var
	// Tail marks tail-call jumps.
	Tail bool
}

// Result is the generated constraint set for one procedure.
type Result struct {
	Proc        string
	Constraints *constraints.Set
	Calls       []CallSite
}

// value abstraction
type avKind uint8

const (
	avUnknown avKind = iota
	avConst
	avStackAddr
	avVar
	avDead // clobbered, typeless (e.g. ecx after a call)
)

type aval struct {
	kind avKind
	c    int32 // constant value, or stack offset for avStackAddr
	base constraints.Var
	off  int32 // byte offset from base (the t.+n of §A.2)
}

// resolved is the outcome of resolving a location's value at a use.
type resolved struct {
	kind avKind // avConst, avStackAddr, avVar (vals), or avDead/avUnknown
	c    int32
	vals []aval // avVar candidates (one per reaching definition)
}

type gen struct {
	pi      *cfg.ProcInfo
	infos   map[string]*cfg.ProcInfo
	schemes SchemeLookup
	sums    summaries.Table
	isConst func(constraints.Var) bool
	opts    Options

	cs    *constraints.Set
	calls []CallSite

	f constraints.Var // the procedure's own type variable

	defAval map[defKey]aval
	// regionBases are the (sorted, negative) frame offsets whose
	// address is taken; regionEnd[i] is the exclusive upper bound of
	// region i.
	regionBases []int32
	mergeVars   map[mergeKey]constraints.Var
	frmEmitted  map[cfg.Loc]constraints.Var
	regionVars  map[int32]constraints.Var
	// nb composes every minted variable name through the symbol table
	// instead of fmt, so a name minted before costs no allocation.
	nb intern.NameBuilder
}

// local begins a minted variable name with its scope:
// ';' + (SCCSlot, or the procedure's name) + ';'. No parsed name can
// hold ';' (asm.Parse cuts comments there before it tokenises), so a
// minted name never equals a procedure's, and the closing ';' keeps a
// scope that holds '!' or '@' from running into the local part. Local
// parts are "eax@3"/"s-4@3" (definition sites), "rgn8", "frm!stack0",
// "zero", "u3!ldbase" (merge intermediates), "@7" (the callsite
// variable of instruction 7) and "@7!τ1" (variable τ1 of the callee
// instantiated there).
func (g *gen) local() *intern.NameBuilder {
	g.nb.Begin(";")
	if g.opts.SCCSlot > 0 {
		g.nb.Int(g.opts.SCCSlot)
	} else {
		g.nb.Str(g.pi.Proc.Name)
	}
	return g.nb.Byte(';')
}

// scheme resolves a callee's published type scheme (nil-safe).
func (g *gen) scheme(name string) *constraints.Scheme {
	if g.schemes == nil {
		return nil
	}
	return g.schemes(name)
}

// mergeKey identifies one use-site merge intermediate (instruction
// index plus operand role) without rendering a string key.
type mergeKey struct {
	idx int
	key string
}

type defKey struct {
	d   cfg.DefID
	loc cfg.Loc
}

// SchemeLookup resolves a callee name to its already-computed type
// scheme, or nil when none is available yet. It is a function, not a
// map, because the solver's readiness scheduler publishes schemes
// concurrently with other SCCs' generation: the solver backs it with a
// slice indexed by a frozen procedure index, where writing one callee's
// slot never races another's read (a shared map would).
type SchemeLookup func(name string) *constraints.Scheme

// Generate produces the constraint set for pi's procedure. infos gives
// the analyses of all program procedures (for callee formal lists),
// schemes the already-computed type schemes of callee SCCs — nil, or
// returning nil for a name, means no scheme, and the callee is linked
// monomorphically, which is the correct treatment inside a strongly
// connected component (§4.2) — and isConst identifies lattice
// constants (kept unrenamed by instantiation).
func Generate(pi *cfg.ProcInfo, infos map[string]*cfg.ProcInfo,
	schemes SchemeLookup, sums summaries.Table,
	isConst func(constraints.Var) bool, opts Options) *Result {

	g := &gen{
		pi:         pi,
		infos:      infos,
		schemes:    schemes,
		sums:       sums,
		isConst:    isConst,
		opts:       opts,
		cs:         constraints.NewSet(),
		f:          constraints.Var(pi.Proc.Name),
		defAval:    map[defKey]aval{},
		mergeVars:  map[mergeKey]constraints.Var{},
		frmEmitted: map[cfg.Loc]constraints.Var{},
		regionVars: map[int32]constraints.Var{},
	}
	g.findRegions()
	g.run()
	return &Result{Proc: pi.Proc.Name, Constraints: g.cs, Calls: g.calls}
}

// findRegions collects address-taken frame offsets.
func (g *gen) findRegions() {
	seen := map[int32]bool{}
	for i, in := range g.pi.Proc.Insts {
		if in.Op == asm.LEA {
			if off, ok := g.pi.SlotOf(i, in.Src); ok && off < 0 && !seen[off] {
				seen[off] = true
				g.regionBases = append(g.regionBases, off)
			}
		}
	}
	sort.Slice(g.regionBases, func(i, j int) bool { return g.regionBases[i] < g.regionBases[j] })
}

// regionOf maps a frame slot to its enclosing address-taken region
// base, if any.
func (g *gen) regionOf(slot int32) (int32, bool) {
	if slot >= 0 {
		return 0, false
	}
	base := int32(0)
	found := false
	for _, b := range g.regionBases {
		if b <= slot {
			base, found = b, true
		} else {
			break
		}
	}
	if !found {
		return 0, false
	}
	// The region extends to the next base above, or to the frame top.
	for _, b := range g.regionBases {
		if b > base {
			if slot >= b {
				return 0, false // cannot happen given scan order
			}
			break
		}
	}
	return base, true
}

func (g *gen) regionVar(base int32) constraints.Var {
	if v, ok := g.regionVars[base]; ok {
		return v
	}
	v := constraints.Var(g.local().Str("rgn").Int(int(-base)).String())
	g.regionVars[base] = v
	return v
}

// frmVar returns (emitting the F.in constraint once) the type variable
// of a formal's entry definition.
func (g *gen) frmVar(l cfg.Loc) constraints.Var {
	if v, ok := g.frmEmitted[l]; ok {
		return v
	}
	v := constraints.Var(g.local().Str("frm!").Str(l.ParamName()).String())
	g.frmEmitted[l] = v
	g.cs.AddSub(
		constraints.MakeDTV(g.f, label.In(l.ParamName())),
		constraints.BaseDTV(v),
	)
	return v
}

func (g *gen) defVar(idx int, l cfg.Loc) constraints.Var {
	nb := g.local()
	if l.IsSlot {
		nb.Byte('s').Int(int(l.Slot))
	} else {
		nb.Str(l.Reg.String())
	}
	return constraints.Var(nb.Byte('@').Int(idx).String())
}

// zeroPseudo is the shared variable that models what happens WITHOUT
// constant suppression: every zero constant flows through one variable,
// falsely unifying all its uses (the §2.1 hazard, used by ablations).
func (g *gen) zeroPseudo() constraints.Var {
	return constraints.Var(g.local().Str("zero").String())
}

// resolveDef maps one reaching definition to a value.
func (g *gen) resolveDef(d cfg.DefID, l cfg.Loc) aval {
	if d.IsEntry() {
		return aval{kind: avVar, base: g.frmVar(g.pi.EntryLoc(d))}
	}
	if v, ok := g.defAval[defKey{d, l}]; ok {
		return v
	}
	// Definition not yet processed (loop back edge) or typeless: give
	// it a stable variable so the type still flows.
	return aval{kind: avVar, base: g.defVar(int(d), l)}
}

// resolveLoc resolves the current value of a location from the
// instruction's pre-state.
func (g *gen) resolveLoc(l cfg.Loc, st *state) resolved {
	if !l.IsSlot {
		if int(l.Reg) < len(st.regs) {
			if a := st.regs[l.Reg]; a.kind != avUnknown {
				switch a.kind {
				case avConst:
					return resolved{kind: avConst, c: a.c}
				case avStackAddr:
					return resolved{kind: avStackAddr, c: a.c}
				case avDead:
					return resolved{kind: avDead}
				case avVar:
					return resolved{kind: avVar, vals: []aval{a}}
				}
			}
		}
	}
	defs := st.reach[l]
	var vals []aval
	allZero := len(defs) > 0
	for _, d := range defs {
		a := g.resolveDef(d, l)
		switch a.kind {
		case avConst:
			if a.c != 0 {
				allZero = false
			}
			// Constants contribute no type constraints (§2.1).
		case avStackAddr:
			allZero = false
			if base, ok := g.regionOf(a.c); ok {
				vals = append(vals, aval{kind: avVar, base: g.regionVar(base), off: a.c - base})
			} else {
				vals = append(vals, aval{kind: avVar, base: g.regionVar(a.c)})
			}
		case avVar:
			allZero = false
			vals = append(vals, a)
		case avDead:
			allZero = false
		}
	}
	if len(vals) == 0 {
		if allZero {
			return resolved{kind: avConst, c: 0}
		}
		return resolved{kind: avDead}
	}
	return resolved{kind: avVar, vals: vals}
}

// regionVarForAddr returns the region variable for a stack address
// value that is being used as a first-class pointer.
func (g *gen) regionVarForAddr(off int32) constraints.Var {
	if base, ok := g.regionOf(off); ok {
		// An interior pointer into an address-taken region: the region
		// variable is the base pointer; interior offsets are folded by
		// the caller through aval.off, so here we return the base.
		return g.regionVar(base)
	}
	// Address of a non-region slot (should not happen: taking the
	// address creates the region); be safe.
	return g.regionVar(off)
}

// state is the per-instruction abstract machine state.
type state struct {
	regs  [6]aval // eax..edi (esp/ebp handled by the stack analysis)
	reach map[cfg.Loc][]cfg.DefID
}

func trackable(r asm.Reg) bool { return r < 6 }

// run walks every block, replaying reaching definitions and the
// register value abstraction, and emits constraints.
func (g *gen) run() {
	// Always bind formal-ins so the interface is visible even if a
	// parameter is dead.
	for _, l := range g.pi.FormalIns {
		g.frmVar(l)
	}

	// Block-entry register constants/addresses: forward fixpoint on the
	// flat lattice {unknown, const c, stackaddr o}.
	blockIn := g.constFixpoint()

	for b := range g.pi.Blocks {
		st := &state{reach: map[cfg.Loc][]cfg.DefID{}}
		st.regs = blockIn[b]
		for l, ds := range g.pi.ReachEntry(b) {
			st.reach[l] = ds
		}
		for i := g.pi.Blocks[b].Start; i < g.pi.Blocks[b].End; i++ {
			g.step(i, st)
		}
	}
}

// constFixpoint computes block-entry constant/stack-address register
// values.
func (g *gen) constFixpoint() [][6]aval {
	nb := len(g.pi.Blocks)
	in := make([][6]aval, nb)
	have := make([]bool, nb)
	have[0] = true

	joinv := func(a, b aval) aval {
		if a == b {
			return a
		}
		return aval{}
	}
	work := []int{0}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		regs := in[b]
		for i := g.pi.Blocks[b].Start; i < g.pi.Blocks[b].End; i++ {
			regs = g.constTransfer(i, regs)
		}
		for _, s := range g.pi.Blocks[b].Succs {
			var next [6]aval
			if !have[s] {
				next = regs
			} else {
				changed := false
				for r := 0; r < 6; r++ {
					next[r] = joinv(in[s][r], regs[r])
					if next[r] != in[s][r] {
						changed = true
					}
				}
				if !changed {
					continue
				}
			}
			in[s] = next
			have[s] = true
			work = append(work, s)
		}
	}
	return in
}

// constTransfer updates the constant/stack-address register state for
// one instruction (values only; no constraints).
func (g *gen) constTransfer(idx int, regs [6]aval) [6]aval {
	in := g.pi.Proc.Insts[idx]
	set := func(r asm.Reg, a aval) {
		if trackable(r) {
			regs[r] = a
		}
	}
	clobber := func(r asm.Reg) { set(r, aval{}) }
	switch in.Op {
	case asm.MOV:
		if in.Dst.Kind == asm.OpReg && trackable(in.Dst.Reg) {
			switch in.Src.Kind {
			case asm.OpImm:
				set(in.Dst.Reg, aval{kind: avConst, c: in.Src.Imm})
			case asm.OpReg:
				if trackable(in.Src.Reg) {
					src := regs[in.Src.Reg]
					if src.kind == avConst || src.kind == avStackAddr {
						set(in.Dst.Reg, src)
					} else {
						clobber(in.Dst.Reg)
					}
				} else {
					clobber(in.Dst.Reg)
				}
			default:
				clobber(in.Dst.Reg)
			}
		}
	case asm.LEA:
		if in.Dst.Kind == asm.OpReg && trackable(in.Dst.Reg) {
			if off, ok := g.pi.SlotOf(idx, in.Src); ok {
				set(in.Dst.Reg, aval{kind: avStackAddr, c: off})
			} else {
				clobber(in.Dst.Reg)
			}
		}
	case asm.XOR:
		if in.Dst.Kind == asm.OpReg && in.Src.Kind == asm.OpReg && in.Dst.Reg == in.Src.Reg {
			set(in.Dst.Reg, aval{kind: avConst, c: 0})
		} else if in.Dst.Kind == asm.OpReg {
			clobber(in.Dst.Reg)
		}
	case asm.ADD, asm.SUB:
		if in.Dst.Kind == asm.OpReg && trackable(in.Dst.Reg) && in.Src.Kind == asm.OpImm {
			a := regs[in.Dst.Reg]
			d := in.Src.Imm
			if in.Op == asm.SUB {
				d = -d
			}
			if a.kind == avConst || a.kind == avStackAddr {
				a.c += d
				set(in.Dst.Reg, a)
			} else {
				clobber(in.Dst.Reg)
			}
		} else if in.Dst.Kind == asm.OpReg {
			clobber(in.Dst.Reg)
		}
	case asm.OR:
		if in.Dst.Kind == asm.OpReg && in.Src.Kind == asm.OpImm && in.Src.Imm == -1 {
			set(in.Dst.Reg, aval{kind: avConst, c: -1})
		} else if in.Dst.Kind == asm.OpReg {
			clobber(in.Dst.Reg)
		}
	case asm.POP, asm.MOVB, asm.MOVW, asm.IMUL, asm.AND, asm.SHL, asm.SHR:
		if in.Dst.Kind == asm.OpReg {
			clobber(in.Dst.Reg)
		}
	case asm.CALL:
		clobber(asm.EAX)
		clobber(asm.ECX)
		clobber(asm.EDX)
	}
	return regs
}
