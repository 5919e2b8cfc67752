// Package cfg recovers the program representation Retypd consumes from
// the assembly substrate: per-procedure control-flow graphs, an affine
// stack-pointer analysis (the "affine relations between the stack and
// frame pointers" of §6.1 — the only points-to-adjacent analysis the
// paper requires), reaching definitions for registers and stack slots
// (Appendix A.1's flow-sensitive parameterization of constraint
// generation), liveness-based register-parameter detection (§2.5), and
// the call graph with its strongly connected components (§4.2).
package cfg

import (
	"fmt"
	"slices"
	"sort"

	"retypd/internal/asm"
)

// Loc is an abstract storage location: a register or a stack slot
// identified by its byte offset from the value of esp at procedure
// entry (offset 0 holds the return address, +4 the first stack
// argument, negative offsets the locals).
type Loc struct {
	IsSlot bool
	Reg    asm.Reg
	Slot   int32
}

// RegLoc makes a register location.
func RegLoc(r asm.Reg) Loc { return Loc{Reg: r} }

// SlotLoc makes a stack-slot location.
func SlotLoc(off int32) Loc { return Loc{IsSlot: true, Slot: off} }

// String renders the location ("eax" or "slot(+4)").
func (l Loc) String() string {
	if !l.IsSlot {
		return l.Reg.String()
	}
	if l.Slot >= 0 {
		return fmt.Sprintf("slot(+%d)", l.Slot)
	}
	return fmt.Sprintf("slot(%d)", l.Slot)
}

// ParamName renders the formal-in location name used in type variables
// ("stack0", "stack4" for slots +4, +8; register name for register
// parameters), matching the paper's instack0 notation.
func (l Loc) ParamName() string {
	if l.IsSlot {
		return fmt.Sprintf("stack%d", l.Slot-4)
	}
	return l.Reg.String()
}

// SPVal is an affine stack-pointer value: entrySP + Delta, or unknown.
type SPVal struct {
	Known bool
	Delta int32
}

// DefID identifies a definition: a non-negative instruction index, or a
// negative id for the synthetic entry definition of a formal location.
type DefID int32

// IsEntry reports whether d is a synthetic entry definition.
func (d DefID) IsEntry() bool { return d < 0 }

// Block is a basic block: instructions [Start, End).
type Block struct {
	Start, End int
	Succs      []int
}

// ProcInfo is the analysis result for one procedure.
type ProcInfo struct {
	Proc    *asm.Proc
	Prog    *asm.Program
	Blocks  []Block
	BlockOf []int // instruction → block index

	// ESPIn and EBPIn give the pre-state of each instruction.
	ESPIn []SPVal
	EBPIn []SPVal

	// FormalIns lists the formal-in locations in canonical order
	// (stack slots ascending, then registers).
	FormalIns []Loc
	// EntryLive is the register mask live at entry (RegBit bits), the
	// same value EntryLiveRegs computes from the raw stream. Captured
	// by findFormals so callers that already hold a ProcInfo can feed
	// bodyfp.ComputeWithLiveMask without rebuilding blocks.
	EntryLive uint8
	// HasOut reports whether the procedure produces a value in eax
	// (possibly via tail call; completed by AnalyzeProgram's fixpoint).
	HasOut bool
	// TailCalls lists instruction indices of tail-call jumps.
	TailCalls []int

	// entryDefs maps formal locations to their synthetic DefIDs.
	entryDefs map[Loc]DefID
	entryLocs []Loc // indexed by -(id)-1

	// reachIn[b] maps locations to the definitions reaching block b's
	// entry.
	reachIn []map[Loc][]DefID

	// hasOutOwn is HasOut's intraprocedural value (before the tail-call
	// fixpoint of FinishHasOut raises it), captured by Analyze so
	// CloneForProgram can rebase onto a new program in O(1).
	hasOutOwn bool
}

// EntryLoc returns the formal location of a synthetic entry definition.
func (pi *ProcInfo) EntryLoc(d DefID) Loc { return pi.entryLocs[-int(d)-1] }

// SlotOf resolves a memory operand at instruction idx to a stack slot,
// if the base register is frame-resolvable there.
func (pi *ProcInfo) SlotOf(idx int, m asm.Operand) (int32, bool) {
	if m.Kind != asm.OpMem {
		return 0, false
	}
	switch m.Reg {
	case asm.ESP:
		if sp := pi.ESPIn[idx]; sp.Known {
			return sp.Delta + m.Imm, true
		}
	case asm.EBP:
		if bp := pi.EBPIn[idx]; bp.Known {
			return bp.Delta + m.Imm, true
		}
	}
	return 0, false
}

// Analyze computes the per-procedure analyses. Program-level facts
// (tail-call out propagation) are refined by AnalyzeProgram.
func Analyze(prog *asm.Program, proc *asm.Proc) *ProcInfo {
	pi := &ProcInfo{Proc: proc, Prog: prog, entryDefs: map[Loc]DefID{}}
	pi.buildBlocks()
	pi.stackAnalysis()
	pi.findFormals()
	pi.reachingDefs()
	pi.findHasOut()
	pi.hasOutOwn = pi.HasOut
	return pi
}

// buildBlocks splits the instruction list into basic blocks and wires
// successor edges.
func (pi *ProcInfo) buildBlocks() {
	pi.Blocks, pi.BlockOf, pi.TailCalls = buildBlocksFor(pi.Proc)
}

// buildBlocksFor is the block construction shared by the full Analyze
// and the lightweight EntryLiveRegs: basic blocks with successor edges,
// the instruction→block index, and the tail-call sites.
func buildBlocksFor(proc *asm.Proc) (blocks []Block, blockOf []int, tailCalls []int) {
	insts := proc.Insts
	n := len(insts)
	leader := make([]bool, n+1)
	leader[0] = true
	for _, idx := range proc.Labels {
		if idx <= n {
			leader[idx] = true
		}
	}
	for i, in := range insts {
		switch in.Op {
		case asm.JMP, asm.JCC, asm.RET:
			if i+1 <= n {
				leader[i+1] = true
			}
		}
	}
	blockOf = make([]int, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && !leader[j] {
			j++
		}
		b := len(blocks)
		blocks = append(blocks, Block{Start: i, End: j})
		for k := i; k < j; k++ {
			blockOf[k] = b
		}
		i = j
	}
	for b := range blocks {
		blk := &blocks[b]
		last := insts[blk.End-1]
		addSucc := func(idx int) {
			if idx < n {
				blk.Succs = append(blk.Succs, blockOf[idx])
			}
		}
		switch last.Op {
		case asm.RET:
		case asm.JMP:
			if tgt, ok := proc.Labels[last.Target]; ok {
				addSucc(tgt)
			} else {
				// Tail call to another procedure: terminator.
				tailCalls = append(tailCalls, blk.End-1)
			}
		case asm.JCC:
			addSucc(proc.Labels[last.Target])
			addSucc(blk.End)
		default:
			addSucc(blk.End)
		}
	}
	return blocks, blockOf, tailCalls
}

// stackAnalysis computes the affine esp/ebp values before each
// instruction.
func (pi *ProcInfo) stackAnalysis() {
	n := len(pi.Proc.Insts)
	pi.ESPIn = make([]SPVal, n)
	pi.EBPIn = make([]SPVal, n)

	type state struct{ esp, ebp SPVal }
	blockIn := make([]state, len(pi.Blocks))
	haveIn := make([]bool, len(pi.Blocks))
	blockIn[0] = state{esp: SPVal{Known: true, Delta: 0}}
	haveIn[0] = true

	merge := func(a, b SPVal) SPVal {
		if a.Known && b.Known && a.Delta == b.Delta {
			return a
		}
		return SPVal{}
	}

	work := []int{0}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := blockIn[b]
		for i := pi.Blocks[b].Start; i < pi.Blocks[b].End; i++ {
			pi.ESPIn[i] = st.esp
			pi.EBPIn[i] = st.ebp
			st = transferSP(st.esp, st.ebp, pi.Proc.Insts[i])
		}
		for _, s := range pi.Blocks[b].Succs {
			var next state
			if !haveIn[s] {
				next = st
			} else {
				next = state{esp: merge(blockIn[s].esp, st.esp), ebp: merge(blockIn[s].ebp, st.ebp)}
				if next == blockIn[s] {
					continue
				}
			}
			blockIn[s] = next
			haveIn[s] = true
			work = append(work, s)
		}
	}
}

type spState = struct{ esp, ebp SPVal }

func transferSP(esp, ebp SPVal, in asm.Inst) spState {
	shift := func(v SPVal, d int32) SPVal {
		if !v.Known {
			return v
		}
		return SPVal{Known: true, Delta: v.Delta + d}
	}
	switch in.Op {
	case asm.PUSH:
		esp = shift(esp, -4)
	case asm.POP:
		if in.Dst.Kind == asm.OpReg && in.Dst.Reg == asm.EBP {
			ebp = SPVal{}
		}
		esp = shift(esp, 4)
	case asm.SUB:
		if in.Dst.Kind == asm.OpReg && in.Dst.Reg == asm.ESP && in.Src.Kind == asm.OpImm {
			esp = shift(esp, -in.Src.Imm)
		}
	case asm.ADD:
		if in.Dst.Kind == asm.OpReg && in.Dst.Reg == asm.ESP && in.Src.Kind == asm.OpImm {
			esp = shift(esp, in.Src.Imm)
		}
	case asm.MOV:
		if in.Dst.Kind == asm.OpReg {
			switch {
			case in.Dst.Reg == asm.EBP && in.Src.Kind == asm.OpReg && in.Src.Reg == asm.ESP:
				ebp = esp
			case in.Dst.Reg == asm.ESP && in.Src.Kind == asm.OpReg && in.Src.Reg == asm.EBP:
				esp = ebp
			case in.Dst.Reg == asm.EBP:
				ebp = SPVal{}
			case in.Dst.Reg == asm.ESP:
				esp = SPVal{}
			}
		}
	case asm.LEAVE:
		// mov esp, ebp; pop ebp
		if ebp.Known {
			esp = SPVal{Known: true, Delta: ebp.Delta + 4}
		} else {
			esp = SPVal{}
		}
		ebp = SPVal{}
	}
	return spState{esp, ebp}
}

// instUses appends the registers read by in to out (for liveness; esp
// and ebp excluded — they are handled by the stack analysis). Callers
// pass a small stack buffer: the per-instruction slice allocation
// otherwise dominates the liveness fixpoint.
func instUses(out []asm.Reg, in asm.Inst) []asm.Reg {
	add := func(r asm.Reg) {
		if r != asm.ESP && r != asm.EBP && r < asm.NumRegs {
			out = append(out, r)
		}
	}
	addOp := func(o asm.Operand) {
		switch o.Kind {
		case asm.OpReg:
			add(o.Reg)
		case asm.OpMem:
			add(o.Reg)
		}
	}
	switch in.Op {
	case asm.MOV, asm.MOVB, asm.MOVW:
		addOp(in.Src)
		if in.Dst.Kind == asm.OpMem {
			add(in.Dst.Reg)
		}
	case asm.LEA:
		add(in.Src.Reg)
	case asm.PUSH:
		addOp(in.Src)
	case asm.ADD, asm.SUB, asm.IMUL, asm.AND, asm.OR, asm.SHL, asm.SHR:
		addOp(in.Src)
		addOp(in.Dst)
	case asm.XOR:
		// xor r, r zeroes r without reading it (§2.1).
		if !(in.Dst.Kind == asm.OpReg && in.Src.Kind == asm.OpReg && in.Dst.Reg == in.Src.Reg) {
			addOp(in.Src)
			addOp(in.Dst)
		}
	case asm.TEST, asm.CMP:
		addOp(in.Src)
		addOp(in.Dst)
	}
	return out
}

// instRegDefs appends the registers written by in to out (same scratch
// discipline as instUses; at most 3 entries are appended).
func instRegDefs(out []asm.Reg, in asm.Inst) []asm.Reg {
	switch in.Op {
	case asm.MOV, asm.MOVB, asm.MOVW, asm.LEA:
		if in.Dst.Kind == asm.OpReg && in.Dst.Reg != asm.ESP && in.Dst.Reg != asm.EBP {
			return append(out, in.Dst.Reg)
		}
	case asm.POP:
		if in.Dst.Reg != asm.ESP && in.Dst.Reg != asm.EBP {
			return append(out, in.Dst.Reg)
		}
	case asm.ADD, asm.SUB, asm.IMUL, asm.XOR, asm.AND, asm.OR, asm.SHL, asm.SHR:
		if in.Dst.Kind == asm.OpReg && in.Dst.Reg != asm.ESP && in.Dst.Reg != asm.EBP {
			return append(out, in.Dst.Reg)
		}
	case asm.CALL:
		// Caller-saved registers are clobbered.
		return append(out, asm.EAX, asm.ECX, asm.EDX)
	}
	return out
}

// RegBit returns the liveness-bitmask bit of r (zero for registers
// outside the first six — esp and ebp never participate).
func RegBit(r asm.Reg) uint8 {
	if r >= 6 {
		return 0
	}
	return 1 << r
}

// entryLiveRegs runs the backward register-liveness fixpoint over the
// blocks and returns the live-in mask at block 0 (the entry): exactly
// the register-parameter set of §2.5.
func entryLiveRegs(insts []asm.Inst, blocks []Block) uint8 {
	liveIn := make([]uint8, len(blocks))  // bitmask of first 6 regs
	liveOut := make([]uint8, len(blocks)) // bitmask
	changed := true
	for changed {
		changed = false
		for b := len(blocks) - 1; b >= 0; b-- {
			var out uint8
			for _, s := range blocks[b].Succs {
				out |= liveIn[s]
			}
			// Tail calls keep nothing live (stack args only in corpus).
			live := out
			var rbuf [4]asm.Reg
			for i := blocks[b].End - 1; i >= blocks[b].Start; i-- {
				for _, r := range instRegDefs(rbuf[:0], insts[i]) {
					live &^= RegBit(r)
				}
				for _, r := range instUses(rbuf[:0], insts[i]) {
					live |= RegBit(r)
				}
			}
			if live != liveIn[b] || out != liveOut[b] {
				liveIn[b] = live
				liveOut[b] = out
				changed = true
			}
		}
	}
	if len(liveIn) == 0 {
		return 0
	}
	return liveIn[0]
}

// EntryLiveRegs computes the set of registers live at procedure entry
// (the register-parameter mask, RegBit bits) from the raw instruction
// stream — no ProcInfo required. It is the interface piece of the body
// fingerprint (internal/bodyfp): formal-in registers are part of a
// procedure's type interface and must be pinned under the fingerprint's
// scratch-register canonicalization, and the fingerprint is computed
// before any per-procedure analysis has run.
func EntryLiveRegs(proc *asm.Proc) uint8 {
	blocks, _, _ := buildBlocksFor(proc)
	return entryLiveRegs(proc.Insts, blocks)
}

// findFormals detects the formal-in locations: stack slots at positive
// offsets read with the entry value live, and registers live-in at
// entry (§2.5 — this conservatively reports the "push ecx" idiom as a
// register parameter, which is exactly the over-unification stressor
// the paper discusses).
func (pi *ProcInfo) findFormals() {
	insts := pi.Proc.Insts

	// Register liveness, backward to a fixpoint.
	entryLive := entryLiveRegs(insts, pi.Blocks)
	pi.EntryLive = entryLive

	// Stack parameter slots: positive-offset slot reads. Only the
	// highest one matters — the argument area below it is filled in.
	var maxSlot int32
	noteRead := func(idx int, m asm.Operand) {
		if off, ok := pi.SlotOf(idx, m); ok && off >= 4 && off > maxSlot {
			maxSlot = off
		}
	}
	for i, in := range insts {
		switch in.Op {
		case asm.MOV, asm.MOVB, asm.MOVW, asm.ADD, asm.SUB, asm.IMUL, asm.AND, asm.OR, asm.CMP, asm.TEST:
			if in.Src.Kind == asm.OpMem {
				noteRead(i, in.Src)
			}
		case asm.PUSH:
			if in.Src.Kind == asm.OpMem {
				noteRead(i, in.Src)
			}
		}
	}
	// Tail calls forward the incoming argument area; the slots they
	// pass are handled by the constraint generator, not listed as
	// formals unless also read.

	// Fill gaps so the argument area is contiguous: a callee that reads
	// stack0 and stack8 still has three parameters.
	for off := int32(4); off <= maxSlot; off += 4 {
		pi.FormalIns = append(pi.FormalIns, SlotLoc(off))
	}
	for r := asm.EAX; r < 6; r++ {
		if entryLive&RegBit(r) != 0 {
			pi.FormalIns = append(pi.FormalIns, RegLoc(r))
		}
	}

	// Synthetic entry definitions for formals.
	for _, l := range pi.FormalIns {
		id := DefID(-len(pi.entryLocs) - 1)
		pi.entryDefs[l] = id
		pi.entryLocs = append(pi.entryLocs, l)
	}
}

// DefsOf lists the locations defined by instruction idx (registers and
// resolvable stack slots).
func (pi *ProcInfo) DefsOf(idx int) []Loc {
	return pi.AppendDefsOf(nil, idx)
}

// AppendDefsOf is DefsOf appending into a caller-provided buffer (pass
// buf[:0] to reuse scratch across a loop — the per-instruction slice
// allocation is visible in profiles of the analyses that replay
// definitions over every instruction).
func (pi *ProcInfo) AppendDefsOf(out []Loc, idx int) []Loc {
	in := pi.Proc.Insts[idx]
	var rbuf [4]asm.Reg
	for _, r := range instRegDefs(rbuf[:0], in) {
		out = append(out, RegLoc(r))
	}
	switch in.Op {
	case asm.MOV, asm.MOVB, asm.MOVW:
		if in.Dst.Kind == asm.OpMem {
			if off, ok := pi.SlotOf(idx, in.Dst); ok {
				out = append(out, SlotLoc(off))
			}
		}
	case asm.PUSH:
		if sp := pi.ESPIn[idx]; sp.Known {
			out = append(out, SlotLoc(sp.Delta-4))
		}
	}
	return out
}

// reachingDefs computes block-entry reaching definitions for registers
// and stack slots.
func (pi *ProcInfo) reachingDefs() {
	nb := len(pi.Blocks)
	pi.reachIn = make([]map[Loc][]DefID, nb)
	pi.reachIn[0] = map[Loc][]DefID{}
	for l, d := range pi.entryDefs {
		pi.reachIn[0][l] = []DefID{d}
	}
	if nb == 1 {
		selfLoop := false
		for _, s := range pi.Blocks[0].Succs {
			if s == 0 {
				selfLoop = true
				break
			}
		}
		if !selfLoop {
			// Straight-line procedure (the overwhelmingly common leaf
			// shape): the only block-entry state is the entry
			// definitions; no out-state is ever consumed. A single
			// block that jumps back to its own start is NOT straight-
			// line — its out-state reaches its entry via the back edge,
			// so it must run the fixpoint like any loop.
			return
		}
	}

	// Per-block gen/kill in one pass: out = gen ∪ (in − kill).
	gen := make([]map[Loc]DefID, nb)
	kill := make([]map[Loc]bool, nb)
	var lbuf [4]Loc
	for b := 0; b < nb; b++ {
		gen[b] = map[Loc]DefID{}
		kill[b] = map[Loc]bool{}
		for i := pi.Blocks[b].Start; i < pi.Blocks[b].End; i++ {
			for _, l := range pi.AppendDefsOf(lbuf[:0], i) {
				gen[b][l] = DefID(i)
				kill[b][l] = true
			}
		}
	}

	mergeInto := func(dst map[Loc][]DefID, l Loc, ds []DefID) bool {
		cur := dst[l]
		changed := false
		for _, d := range ds {
			found := false
			for _, c := range cur {
				if c == d {
					found = true
					break
				}
			}
			if !found {
				cur = append(cur, d)
				changed = true
			}
		}
		if changed {
			slices.Sort(cur)
			dst[l] = cur
		}
		return changed
	}

	work := []int{0}
	inWork := make([]bool, nb)
	inWork[0] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b] = false
		// Compute out state.
		out := map[Loc][]DefID{}
		for l, ds := range pi.reachIn[b] {
			if !kill[b][l] {
				mergeInto(out, l, ds)
			}
		}
		for l, d := range gen[b] {
			one := [1]DefID{d}
			mergeInto(out, l, one[:])
		}
		for _, s := range pi.Blocks[b].Succs {
			if pi.reachIn[s] == nil {
				pi.reachIn[s] = map[Loc][]DefID{}
			}
			changed := false
			for l, ds := range out {
				if mergeInto(pi.reachIn[s], l, ds) {
					changed = true
				}
			}
			if changed && !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
}

// WalkDefs replays the reaching-definition state through every
// instruction in order, invoking f with the pre-state of each. The
// state map is reused; f must not retain it.
func (pi *ProcInfo) WalkDefs(f func(idx int, reach map[Loc][]DefID)) {
	for b := range pi.Blocks {
		state := map[Loc][]DefID{}
		for l, ds := range pi.reachIn[b] {
			state[l] = ds
		}
		var lbuf [4]Loc
		for i := pi.Blocks[b].Start; i < pi.Blocks[b].End; i++ {
			f(i, state)
			for _, l := range pi.AppendDefsOf(lbuf[:0], i) {
				state[l] = []DefID{DefID(i)}
			}
		}
	}
}

// ReachEntry reports whether any block-entry state is unreachable
// (diagnostics).
func (pi *ProcInfo) ReachEntry(b int) map[Loc][]DefID { return pi.reachIn[b] }

// findHasOut checks whether a definition of eax reaches some ret. Only
// eax matters, so a ret block is not replayed: a non-entry definition
// reaches its ret iff the block defines eax before the ret (that
// instruction's definition is the one reaching it) or, failing that,
// one reaches the block's entry.
func (pi *ProcInfo) findHasOut() {
	var rbuf [4]asm.Reg
	for b := range pi.Blocks {
		blk := pi.Blocks[b]
		if blk.End == blk.Start {
			continue
		}
		if pi.Proc.Insts[blk.End-1].Op != asm.RET {
			continue
		}
		for i := blk.Start; i < blk.End-1; i++ {
			for _, r := range instRegDefs(rbuf[:0], pi.Proc.Insts[i]) {
				if r == asm.EAX {
					pi.HasOut = true
					return
				}
			}
		}
		for _, d := range pi.reachIn[b][RegLoc(asm.EAX)] {
			if !d.IsEntry() {
				pi.HasOut = true
				return
			}
		}
	}
}

// CallGraph is the program call graph.
type CallGraph struct {
	Prog *asm.Program
	// Callees[p] lists distinct program procedures called (or
	// tail-called) by p.
	Callees map[string][]string
	// Externals[p] lists called names with no definition in the
	// program.
	Externals map[string][]string
	// SCCs lists strongly connected components in bottom-up (callee
	// first) order.
	SCCs [][]string
}

// BuildCallGraph computes the call graph and its SCCs in bottom-up
// topological order (Tarjan's algorithm emits SCCs in reverse
// topological order of the condensation, which is exactly the
// callee-first order InferProcTypes needs, §4.2).
func BuildCallGraph(prog *asm.Program) *CallGraph {
	cg := &CallGraph{
		Prog:      prog,
		Callees:   make(map[string][]string, len(prog.Procs)),
		Externals: make(map[string][]string, len(prog.Procs)),
	}
	// Distinct-callee lists are short, so dedup by linear scan — two
	// per-procedure maps here dominated the whole build's allocations.
	contains := func(list []string, s string) bool {
		for _, v := range list {
			if v == s {
				return true
			}
		}
		return false
	}
	for _, p := range prog.Procs {
		var callees, exts []string
		for _, in := range p.Insts {
			var tgt string
			switch in.Op {
			case asm.CALL:
				tgt = in.Target
			case asm.JMP:
				if _, isLabel := p.Labels[in.Target]; !isLabel {
					tgt = in.Target
				}
			}
			if tgt == "" {
				continue
			}
			if _, ok := prog.ProcIndex[tgt]; ok {
				if !contains(callees, tgt) {
					callees = append(callees, tgt)
				}
			} else if !contains(exts, tgt) {
				exts = append(exts, tgt)
			}
		}
		if len(callees) > 0 {
			cg.Callees[p.Name] = callees
		}
		if len(exts) > 0 {
			cg.Externals[p.Name] = exts
		}
	}

	// Tarjan SCC, over dense procedure ids so the search itself touches
	// no maps (ids follow first appearance in prog.Procs, then in the
	// callee lists; the visit order is the same as over names).
	ids := make(map[string]int, len(prog.Procs))
	var names []string
	id := func(s string) int {
		i, ok := ids[s]
		if !ok {
			i = len(names)
			ids[s] = i
			names = append(names, s)
		}
		return i
	}
	for _, p := range prog.Procs {
		id(p.Name)
	}
	for _, p := range prog.Procs {
		for _, c := range cg.Callees[p.Name] {
			id(c)
		}
	}
	succ := make([][]int, len(names))
	for i, name := range names {
		for _, c := range cg.Callees[name] {
			succ[i] = append(succ[i], ids[c])
		}
	}
	index := make([]int, len(names))
	for i := range index {
		index[i] = -1
	}
	low := make([]int, len(names))
	onStack := make([]bool, len(names))
	var stack []int
	// Every SCC is a capacity-capped window of one backing array.
	members := make([]string, 0, len(names))
	counter := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if index[w] < 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			start := len(members)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, names[w])
				if w == v {
					break
				}
			}
			scc := members[start:len(members):len(members)]
			sort.Strings(scc)
			cg.SCCs = append(cg.SCCs, scc)
		}
	}
	for _, p := range prog.Procs {
		if v := ids[p.Name]; index[v] < 0 {
			strongconnect(v)
		}
	}
	return cg
}

// AnalyzeProgram analyzes every procedure and completes the
// program-level HasOut fixpoint across tail calls.
func AnalyzeProgram(prog *asm.Program) map[string]*ProcInfo {
	infos := make(map[string]*ProcInfo, len(prog.Procs))
	for _, p := range prog.Procs {
		infos[p.Name] = Analyze(prog, p)
	}
	FinishHasOut(infos)
	return infos
}

// FinishHasOut runs the interprocedural tail-call fixpoint over
// per-procedure analyses: a procedure that tail-jumps into a
// value-returning (or external) callee returns a value itself. It is
// the only cross-procedure step of AnalyzeProgram, split out so
// incremental re-analysis can rebuild a program's infos from a mix of
// freshly analyzed and rebased (CloneForProgram) procedures and still
// complete them consistently. Infos must carry their intraprocedural
// HasOut when this is called.
func FinishHasOut(infos map[string]*ProcInfo) {
	for changed := true; changed; {
		changed = false
		for _, pi := range infos {
			if pi.HasOut {
				continue
			}
			for _, idx := range pi.TailCalls {
				callee := pi.Proc.Insts[idx].Target
				if ci, ok := infos[callee]; ok && ci.HasOut {
					pi.HasOut = true
					changed = true
					break
				}
				if _, ok := infos[callee]; !ok {
					// External tail callee: assume it returns a value.
					pi.HasOut = true
					changed = true
					break
				}
			}
		}
	}
}

// CloneForProgram returns a shallow copy of pi rebased onto prog and
// proc, whose body must be identical to pi's up to label names,
// conditional-jump mnemonics, and call-target names — the renamings
// every analysis here is invariant under: label positions (not names)
// define blocks, Cond is display-only, and call targets affect only the
// interprocedural HasOut, which the following FinishHasOut recomputes
// against the new program. Callers verify with asm.Proc.EqualBody, or
// with a body-fingerprint match under the identity register assignment
// (bodyfp.FP.EquivalentTo plus SameRegisters — scratch-register
// renamings are NOT admissible: reaching definitions and the entry
// formals are keyed by actual register names). Every per-procedure
// analysis result is shared read-only with the receiver; HasOut is
// reset to its intraprocedural value so a following FinishHasOut can
// re-run the tail-call fixpoint against the new program without
// mutating pi. This is what lets incremental re-analysis — and the
// solver's body-class layer, for in-program duplicates — skip
// re-running the per-procedure analyses.
func (pi *ProcInfo) CloneForProgram(prog *asm.Program, proc *asm.Proc) *ProcInfo {
	ci := *pi
	ci.Prog = prog
	ci.Proc = proc
	// Recover the intraprocedural value captured by Analyze: the
	// receiver's HasOut may have been raised by a previous program's
	// tail-call fixpoint, and the new program's fixpoint must start
	// from the body-local truth.
	ci.HasOut = pi.hasOutOwn
	return &ci
}
