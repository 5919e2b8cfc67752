package absint

import (
	"strconv"
	"strings"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/label"
)

func bare(v constraints.Var) constraints.DTV { return constraints.BaseDTV(v) }

// copyInto emits the upcast constraints of a value copy into dst
// (§A.1): one constraint per reaching candidate, with zero constants
// suppressed (§2.1) unless the ablation option routes them through the
// shared zero pseudo-variable.
func (g *gen) copyInto(rv resolved, dst constraints.DTV) {
	switch rv.kind {
	case avConst:
		if rv.c == 0 && g.opts.NoConstantSuppression {
			g.cs.AddSub(bare(g.zeroPseudo()), dst)
		}
	case avStackAddr:
		// A pointer into the local activation record: the region
		// variable is the pointer's type (§A.3).
		if base, ok := g.regionOf(rv.c); ok {
			if rv.c == base {
				g.cs.AddSub(bare(g.regionVar(base)), dst)
			}
			// Interior pointers are dropped (offset not expressible
			// on the bare variable; accesses still resolve via vals).
		}
	case avVar:
		for _, v := range rv.vals {
			// Offset-translated values (t.+n, §A.2): a 0 offset is the
			// value itself; a non-word-aligned offset can only be
			// integer arithmetic, so the translation preserves the
			// type. Word-aligned non-zero offsets may be interior
			// pointers (§2.4) and are dropped here — their field
			// accesses are still folded into σN@k at dereference.
			if v.off == 0 || v.off%4 != 0 {
				g.cs.AddSub(bare(v.base), dst)
			}
		}
	}
}

// mergeOne funnels a multi-candidate value into a single fresh variable
// (the unknown_loc intermediates of Figure 20), memoized per use site.
func (g *gen) mergeOne(idx int, key string, rv resolved) (constraints.Var, int32, bool) {
	if rv.kind != avVar || len(rv.vals) == 0 {
		return "", 0, false
	}
	if len(rv.vals) == 1 {
		return rv.vals[0].base, rv.vals[0].off, true
	}
	mk := mergeKey{idx: idx, key: key}
	u, ok := g.mergeVars[mk]
	if !ok {
		u = constraints.Var(g.local().Byte('u').Int(idx).Byte('!').Str(key).String())
		g.mergeVars[mk] = u
	}
	for _, v := range rv.vals {
		if v.off == 0 {
			g.cs.AddSub(bare(v.base), bare(u))
		}
	}
	return u, 0, true
}

// loadFrom emits a pointer-load constraint base.load.σbits@off ⊑ d.
func (g *gen) loadFrom(base constraints.Var, off int32, bits int, d constraints.Var) {
	g.cs.AddSub(
		constraints.MakeDTV(base, label.Load(), label.Field(bits, int(off))),
		bare(d),
	)
}

// storeTo emits value ⊑ base.store.σbits@off for every candidate.
func (g *gen) storeTo(rv resolved, base constraints.Var, off int32, bits int) {
	g.copyInto(rv, constraints.MakeDTV(base, label.Store(), label.Field(bits, int(off))))
}

// resolveOperand resolves a register or immediate source operand.
func (g *gen) resolveOperand(o asm.Operand, st *state) resolved {
	switch o.Kind {
	case asm.OpImm:
		return resolved{kind: avConst, c: o.Imm}
	case asm.OpReg:
		if !trackable(o.Reg) {
			return resolved{kind: avDead}
		}
		return g.resolveLoc(cfg.RegLoc(o.Reg), st)
	default:
		return resolved{kind: avDead}
	}
}

// rvToAval summarizes a resolved value as the aval recorded for a new
// definition that copies it through variable d (already constrained).
func rvToAval(rv resolved, d constraints.Var) aval {
	switch rv.kind {
	case avConst:
		return aval{kind: avConst, c: rv.c}
	case avStackAddr:
		return aval{kind: avStackAddr, c: rv.c}
	case avVar:
		return aval{kind: avVar, base: d}
	default:
		return aval{kind: avDead}
	}
}

// step emits constraints for instruction i and advances the state.
func (g *gen) step(i int, st *state) {
	defer g.advance(i, st)
	if g.opts.Covered != nil && !g.opts.Covered(g.pi.Proc.Name, i) {
		return // uncovered by the dynamic trace: no constraints
	}
	in := g.pi.Proc.Insts[i]
	switch in.Op {
	case asm.MOV, asm.MOVB, asm.MOVW:
		g.stepMove(i, in, st)
	case asm.LEA:
		g.stepLea(i, in, st)
	case asm.PUSH:
		if sp := g.pi.ESPIn[i]; sp.Known {
			dst := sp.Delta - 4
			if in.Src.Kind == asm.OpMem {
				// push [mem]: load then store to the new slot.
				if slot, ok := g.pi.SlotOf(i, in.Src); ok {
					if base, inRegion := g.regionOf(slot); inRegion {
						d := g.defVar(i, cfg.SlotLoc(dst))
						g.loadFrom(g.regionVar(base), slot-base, 32, d)
						g.setDef(i, cfg.SlotLoc(dst), aval{kind: avVar, base: d})
					} else {
						g.storeSlotRV(i, dst, g.resolveLoc(cfg.SlotLoc(slot), st), 32)
					}
				}
			} else {
				g.storeSlotRV(i, dst, g.resolveOperand(in.Src, st), 32)
			}
		}
	case asm.POP:
		if sp := g.pi.ESPIn[i]; sp.Known && in.Dst.Kind == asm.OpReg && trackable(in.Dst.Reg) {
			g.loadSlot(i, sp.Delta, 32, cfg.RegLoc(in.Dst.Reg), st)
		}
	case asm.ADD, asm.SUB:
		g.stepAddSub(i, in, st)
	case asm.XOR, asm.AND, asm.OR, asm.IMUL, asm.SHL, asm.SHR:
		g.stepBitArith(i, in, st)
	case asm.CALL:
		g.emitCall(i, st, false)
	case asm.JMP:
		if _, isLabel := g.pi.Proc.Labels[in.Target]; !isLabel {
			g.emitCall(i, st, true)
		}
	case asm.RET:
		if g.pi.HasOut {
			rv := g.resolveLoc(cfg.RegLoc(asm.EAX), st)
			g.copyInto(rv, constraints.MakeDTV(g.f, label.Out("eax")))
		}
	}
}

// stepMove handles the three mov widths.
func (g *gen) stepMove(i int, in asm.Inst, st *state) {
	bits := in.Op.Bits()
	// Store forms.
	if in.Dst.Kind == asm.OpMem {
		rv := g.resolveOperand(in.Src, st)
		if slot, ok := g.pi.SlotOf(i, in.Dst); ok {
			g.storeSlotRV(i, slot, rv, bits)
			return
		}
		baseRv := g.resolveLoc(cfg.RegLoc(in.Dst.Reg), st)
		switch baseRv.kind {
		case avVar:
			if bv, boff, ok := g.mergeOne(i, "stbase", baseRv); ok {
				g.storeTo(rv, bv, boff+in.Dst.Imm, bits)
			}
		case avStackAddr:
			g.storeSlotRV(i, baseRv.c+in.Dst.Imm, rv, bits)
		}
		return
	}
	// Load and copy forms (dst is a register).
	if !trackable(in.Dst.Reg) {
		return
	}
	dloc := cfg.RegLoc(in.Dst.Reg)
	if in.Src.Kind == asm.OpMem {
		if slot, ok := g.pi.SlotOf(i, in.Src); ok {
			g.loadSlot(i, slot, bits, dloc, st)
			return
		}
		baseRv := g.resolveLoc(cfg.RegLoc(in.Src.Reg), st)
		switch baseRv.kind {
		case avVar:
			if bv, boff, ok := g.mergeOne(i, "ldbase", baseRv); ok {
				d := g.defVar(i, dloc)
				g.loadFrom(bv, boff+in.Src.Imm, bits, d)
				g.setDef(i, dloc, aval{kind: avVar, base: d})
				return
			}
			g.setDef(i, dloc, aval{kind: avDead})
		case avStackAddr:
			g.loadSlot(i, baseRv.c+in.Src.Imm, bits, dloc, st)
		default:
			g.setDef(i, dloc, aval{kind: avDead})
		}
		return
	}
	// Register/immediate copy.
	rv := g.resolveOperand(in.Src, st)
	if rv.kind == avVar && len(rv.vals) == 1 && rv.vals[0].off != 0 {
		// Pure alias preserving the byte offset (t.+n, §A.2).
		g.setDef(i, dloc, rv.vals[0])
		return
	}
	d := g.defVar(i, dloc)
	g.copyInto(rv, bare(d))
	g.setDef(i, dloc, rvToAval(rv, d))
}

// storeSlotRV writes a resolved value into a frame slot, routing
// through the region variable when the slot's address is taken.
func (g *gen) storeSlotRV(i int, slot int32, rv resolved, bits int) {
	if base, ok := g.regionOf(slot); ok {
		g.storeTo(rv, g.regionVar(base), slot-base, bits)
		g.setDef(i, cfg.SlotLoc(slot), aval{kind: avDead})
		return
	}
	if rv.kind == avVar && len(rv.vals) == 1 && rv.vals[0].off != 0 {
		g.setDef(i, cfg.SlotLoc(slot), rv.vals[0])
		return
	}
	d := g.defVar(i, cfg.SlotLoc(slot))
	g.copyInto(rv, bare(d))
	g.setDef(i, cfg.SlotLoc(slot), rvToAval(rv, d))
}

// loadSlot reads a frame slot into a destination location, routing
// through the region variable when the slot's address is taken.
func (g *gen) loadSlot(i int, slot int32, bits int, dloc cfg.Loc, st *state) {
	if base, ok := g.regionOf(slot); ok {
		d := g.defVar(i, dloc)
		g.loadFrom(g.regionVar(base), slot-base, bits, d)
		g.setDef(i, dloc, aval{kind: avVar, base: d})
		return
	}
	rv := g.resolveLoc(cfg.SlotLoc(slot), st)
	if rv.kind == avVar && len(rv.vals) == 1 && rv.vals[0].off != 0 {
		g.setDef(i, dloc, rv.vals[0])
		return
	}
	d := g.defVar(i, dloc)
	g.copyInto(rv, bare(d))
	g.setDef(i, dloc, rvToAval(rv, d))
}

// setDef records the aval of a definition made by instruction i.
func (g *gen) setDef(i int, l cfg.Loc, a aval) {
	g.defAval[defKey{cfg.DefID(i), l}] = a
}

// advance applies instruction i's kills/gens to the replayed state.
func (g *gen) advance(i int, st *state) {
	var lbuf [4]cfg.Loc
	for _, l := range g.pi.AppendDefsOf(lbuf[:0], i) {
		st.reach[l] = []cfg.DefID{cfg.DefID(i)}
		if !l.IsSlot && trackable(l.Reg) {
			if a, ok := g.defAval[defKey{cfg.DefID(i), l}]; ok {
				st.regs[l.Reg] = a
			} else {
				st.regs[l.Reg] = aval{kind: avDead}
			}
		}
	}
}

// stepLea handles lea dst, [base+disp].
func (g *gen) stepLea(i int, in asm.Inst, st *state) {
	if !trackable(in.Dst.Reg) {
		return
	}
	dloc := cfg.RegLoc(in.Dst.Reg)
	if off, ok := g.pi.SlotOf(i, in.Src); ok {
		g.setDef(i, dloc, aval{kind: avStackAddr, c: off})
		return
	}
	baseRv := g.resolveLoc(cfg.RegLoc(in.Src.Reg), st)
	if baseRv.kind == avVar && len(baseRv.vals) == 1 {
		v := baseRv.vals[0]
		g.setDef(i, dloc, aval{kind: avVar, base: v.base, off: v.off + in.Src.Imm})
		return
	}
	g.setDef(i, dloc, aval{kind: avDead})
}

// stepAddSub handles add/sub.
func (g *gen) stepAddSub(i int, in asm.Inst, st *state) {
	if in.Dst.Kind != asm.OpReg || !trackable(in.Dst.Reg) {
		return
	}
	dloc := cfg.RegLoc(in.Dst.Reg)
	x := g.resolveLoc(dloc, st)
	y := g.resolveOperand(in.Src, st)
	sign := int32(1)
	if in.Op == asm.SUB {
		sign = -1
	}

	// Constant displacement: the result is the same value translated by
	// a constant (§A.2's t.+n); no constraint is generated.
	if y.kind == avConst {
		switch x.kind {
		case avConst:
			g.setDef(i, dloc, aval{kind: avConst, c: x.c + sign*y.c})
		case avStackAddr:
			g.setDef(i, dloc, aval{kind: avStackAddr, c: x.c + sign*y.c})
		case avVar:
			if len(x.vals) == 1 {
				v := x.vals[0]
				g.setDef(i, dloc, aval{kind: avVar, base: v.base, off: v.off + sign*y.c})
				return
			}
			d := g.defVar(i, dloc)
			g.copyInto(x, bare(d))
			g.setDef(i, dloc, aval{kind: avVar, base: d, off: sign * y.c})
		default:
			g.setDef(i, dloc, aval{kind: avDead})
		}
		return
	}
	if in.Op == asm.ADD && x.kind == avConst && y.kind == avVar && len(y.vals) == 1 {
		v := y.vals[0]
		g.setDef(i, dloc, aval{kind: avVar, base: v.base, off: v.off + x.c})
		return
	}
	// General case: a 3-place additive constraint (§A.6, Figure 13).
	if x.kind == avVar && y.kind == avVar {
		xv, _, okx := g.mergeOne(i, "addx", x)
		yv, _, oky := g.mergeOne(i, "addy", y)
		if okx && oky {
			d := g.defVar(i, dloc)
			if in.Op == asm.ADD {
				g.cs.Insert(constraints.Add(bare(xv), bare(yv), bare(d)))
			} else {
				g.cs.Insert(constraints.Subtract(bare(xv), bare(yv), bare(d)))
			}
			g.setDef(i, dloc, aval{kind: avVar, base: d})
			return
		}
	}
	g.setDef(i, dloc, aval{kind: avDead})
}

// stepBitArith handles the bit-manipulation family with the §A.5.2
// special cases.
func (g *gen) stepBitArith(i int, in asm.Inst, st *state) {
	if in.Dst.Kind != asm.OpReg || !trackable(in.Dst.Reg) {
		return
	}
	dloc := cfg.RegLoc(in.Dst.Reg)

	// xor r, r and or r, -1: constant initializers, not integral ops.
	if in.Op == asm.XOR && in.Src.Kind == asm.OpReg && in.Src.Reg == in.Dst.Reg {
		g.setDef(i, dloc, aval{kind: avConst, c: 0})
		return
	}
	if in.Op == asm.OR && in.Src.Kind == asm.OpImm && in.Src.Imm == -1 {
		g.setDef(i, dloc, aval{kind: avConst, c: -1})
		return
	}
	// Pointer bit-stealing: and r, ~align / or r, lowbits act as y := x.
	if in.Src.Kind == asm.OpImm {
		if (in.Op == asm.AND && in.Src.Imm|3 == -1) ||
			(in.Op == asm.OR && in.Src.Imm >= 1 && in.Src.Imm <= 3) {
			x := g.resolveLoc(dloc, st)
			if x.kind == avVar && len(x.vals) == 1 {
				g.setDef(i, dloc, x.vals[0])
				return
			}
			d := g.defVar(i, dloc)
			g.copyInto(x, bare(d))
			g.setDef(i, dloc, rvToAval(x, d))
			return
		}
	}
	// General bit manipulation: integral operands and result (§A.5.2).
	intC := bare(constraints.Var("int"))
	x := g.resolveLoc(dloc, st)
	y := g.resolveOperand(in.Src, st)
	for _, rv := range []resolved{x, y} {
		if rv.kind == avVar {
			for _, v := range rv.vals {
				if v.off == 0 {
					g.cs.AddSub(bare(v.base), intC)
				}
			}
		}
	}
	d := g.defVar(i, dloc)
	g.cs.AddSub(intC, bare(d))
	g.cs.AddSub(bare(d), intC)
	g.setDef(i, dloc, aval{kind: avVar, base: d})
}

// emitCall handles call instructions and tail-call jumps (§A.4):
// locator-mediated actual/formal binding with callsite-tagged scheme
// instantiation.
func (g *gen) emitCall(i int, st *state, tail bool) {
	target := g.pi.Proc.Insts[i].Target
	_, isProgramProc := g.infos[target]
	// A polymorphic instantiation is named by its callsite alone: the
	// callee's root becomes the callsite variable, so no name minted
	// here mentions the callee.
	var site constraints.Var
	if !g.opts.MonomorphicCalls || (g.opts.PolymorphicExternals && !isProgramProc) {
		site = constraints.Var(g.local().Byte('@').Int(i).String())
	}

	var formalNames []string
	var hasOut bool
	root := constraints.Var(target)
	if ci, ok := g.infos[target]; ok {
		for _, l := range ci.FormalIns {
			formalNames = append(formalNames, l.ParamName())
		}
		hasOut = ci.HasOut
		if sch := g.scheme(target); sch != nil && site != "" {
			root = site
			g.instantiate(sch.Constraints, sch.Root, site)
		}
		// Otherwise same-SCC (or monomorphic mode): link the callee's
		// own interface variable directly.
	} else {
		if site != "" {
			root = site
		}
		if sum, ok := g.sums[target]; ok {
			formalNames = append(formalNames, sum.FormalIns...)
			hasOut = sum.HasOut
			g.instantiate(sum.Constraints, constraints.Var(target), site)
		} else {
			// Unknown external: assume it returns something, takes
			// nothing we can see.
			hasOut = true
		}
	}

	// Actual-ins.
	argBase := int32(0)
	haveSP := false
	if sp := g.pi.ESPIn[i]; sp.Known {
		haveSP = true
		argBase = sp.Delta
		if tail {
			argBase += 4
		}
	}
	for _, fn := range formalNames {
		formalDTV := constraints.MakeDTV(root, label.In(fn))
		if strings.HasPrefix(fn, "stack") {
			if !haveSP {
				continue
			}
			k, err := strconv.Atoi(fn[len("stack"):])
			if err != nil {
				continue
			}
			slot := argBase + int32(k)
			if base, ok := g.regionOf(slot); ok {
				// Argument area overlapping a region: pass the region
				// content conservatively.
				g.cs.AddSub(constraints.MakeDTV(g.regionVar(base), label.Load(), label.Field(32, int(slot-base))), formalDTV)
				continue
			}
			rv := g.resolveLoc(cfg.SlotLoc(slot), st)
			g.copyInto(rv, formalDTV)
		} else if r, ok := asm.ParseReg(fn); ok {
			rv := g.resolveLoc(cfg.RegLoc(r), st)
			g.copyInto(rv, formalDTV)
		}
	}

	// Output binding.
	if tail {
		if hasOut && g.pi.HasOut {
			g.cs.AddSub(constraints.MakeDTV(root, label.Out("eax")), constraints.MakeDTV(g.f, label.Out("eax")))
		}
	} else {
		eloc := cfg.RegLoc(asm.EAX)
		if hasOut {
			d := g.defVar(i, eloc)
			g.cs.AddSub(constraints.MakeDTV(root, label.Out("eax")), bare(d))
			g.setDef(i, eloc, aval{kind: avVar, base: d})
		} else {
			g.setDef(i, eloc, aval{kind: avDead})
		}
		g.setDef(i, cfg.RegLoc(asm.ECX), aval{kind: avDead})
		g.setDef(i, cfg.RegLoc(asm.EDX), aval{kind: avDead})
	}

	g.calls = append(g.calls, CallSite{
		Caller: g.pi.Proc.Name, Inst: i, Callee: target, Root: root, Tail: tail,
	})
}

// instantiate inserts a callee's scheme or summary constraints at one
// callsite (Example A.4): calleeRoot becomes site and every other
// non-constant variable v becomes site!v. An empty site links the
// constraints as they are (monomorphic mode).
func (g *gen) instantiate(cs *constraints.Set, calleeRoot, site constraints.Var) {
	if site == "" {
		g.cs.InsertAll(cs)
		return
	}
	g.cs.InsertAll(cs.SubstituteBases(func(v constraints.Var) constraints.Var {
		switch {
		case g.isConst(v):
			return v
		case v == calleeRoot:
			return site
		}
		return constraints.Var(g.nb.Begin(string(site)).Byte('!').Str(string(v)).String())
	}))
}
