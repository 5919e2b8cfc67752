// Package bodyfp computes rename-invariant fingerprints of procedure
// IR bodies — the earliest memoization key of the solver pipeline,
// sitting *before* abstract interpretation. Two procedures with the
// same body fingerprint (verified by EquivalentTo, which compares the
// full canonical encodings, so 64-bit hash collisions cannot mis-group)
// generate isomorphic constraint sets: the abstract interpreter, the
// constraint fingerprint, scheme simplification, and sketch solving can
// all run once for the whole equivalence class and the results be
// served to the other members by rerooting the scheme. This is
// the canonicalize-early strategy BinSub (Smith, 2024) argues for: on
// corpora full of duplicate leaf procedures, constraint generation
// itself is redundant work, not just simplification.
//
// The canonical encoding is invariant under:
//
//   - the procedure's own name (no name reaches the encoding at all);
//   - label names (control-flow targets are encoded as instruction
//     indices; the set of label *positions* is encoded, because block
//     boundaries affect the flow-sensitive analyses);
//   - conditional-jump mnemonics (asm.Inst.Cond is display-only: every
//     JCC has the same CFG and constraint semantics);
//   - renaming of scratch registers within the symmetry classes the
//     abstract semantics treats uniformly: {ecx, edx} (both clobbered
//     by calls, neither special otherwise) and {ebx, esi, edi} (never
//     clobbered, never special). eax (return value and call clobber),
//     ebp/esp (frame/stack analysis), and any register that is a
//     formal-in parameter (its name appears in in_<reg> labels, which
//     renaming must not touch) are pinned to themselves.
//
// It distinguishes everything the constraint generator's output depends
// on besides names: opcodes, operand shapes, immediates and stack
// displacements, the register-parameter interface (the entry-liveness
// mask, pinned under canonicalization), the positions of calls, and the
// identity bound to every call target (supplied by the caller as a
// CalleeID — typically the callee's own equivalence class, so that
// wrappers around interchangeable callees still dedup, while calls to
// genuinely different code never do). Call-target identities are
// encoded together with the first-occurrence index of the target
// *name*, because under monomorphic linking two calls to one callee
// share a single interface variable — a repetition pattern a member
// with two distinct (if class-equal) callees would not reproduce.
//
// The fingerprint is computed from the raw instruction stream alone —
// no cfg.ProcInfo — so classification can run *before* any
// per-procedure analysis and duplicate bodies can be served their CFG
// analyses (cfg.ProcInfo.CloneForProgram) like they are served schemes.
// The analysis outputs the encoding no longer carries explicitly are
// derivable from it: stack-slot formals are a deterministic function of
// the instruction stream under the pinned esp/ebp (the affine stack
// analysis and positive-offset reads), and HasOut is the
// intraprocedural eax-reaches-ret fact (structural, eax pinned) closed
// over tail-callee identities — which ARE encoded, so equal encodings
// yield equal HasOut inductively, provided every CalleeNamed target
// resolves the same way (program procedure vs external) on both sides;
// consumers that move fingerprints across programs must check that
// (solver's body-class cache does).
package bodyfp

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sort"

	"retypd/internal/asm"
	"retypd/internal/cfg"
)

// Config carries the generation options and lattice identity mixed into
// every fingerprint. The solver's body-class table is engine-scoped and
// persistent (PR 10), so these are no longer constant over a table's
// lifetime: encoding them is what keeps entries from different
// configurations apart (the documented invariant: every
// output-affecting option must reach the body key).
//
//retypd:cachekey Compute
type Config struct {
	// MonomorphicCalls, PolymorphicExternals and NoConstantSuppression
	// mirror absint.Options.
	MonomorphicCalls      bool
	PolymorphicExternals  bool
	NoConstantSuppression bool
	// LatticeSig is the lattice's content signature
	// (lattice.Signature): constraint generation consults the lattice
	// for constant detection. Encoded as bytes, so fingerprints are
	// identical across processes.
	LatticeSig string
	// CtxSig folds in the run context beyond constraint generation that
	// the solver's persistent body-class cache must distinguish — the
	// summaries-table digest and the solve options (MaxSketchDepth,
	// NoSpecialize) that shape the cached sketches. Empty for uses that
	// check those separately (the engine's session fingerprints).
	CtxSig string
}

// CalleeKind discriminates CalleeID.
type CalleeKind byte

const (
	// CalleeClass identifies a program procedure by its body-equivalence
	// class: any member generates the same callee scheme modulo its root
	// name.
	CalleeClass CalleeKind = 1
	// CalleeNamed identifies a call target by its exact name (externals,
	// and program procedures excluded from classing): only calls to the
	// very same target match.
	CalleeNamed CalleeKind = 2
)

// CalleeID is the identity the fingerprint records for one call target:
// a per-run class id for CalleeClass, the target's own name for
// CalleeNamed. Names are encoded as bytes (never as interned ids), so a
// fingerprint computed with named callees is identical across
// processes — the property the engine's incremental session relies on.
type CalleeID struct {
	Kind CalleeKind
	// ID is the body-equivalence class id (CalleeClass only).
	ID uint64
	// Name is the exact target name (CalleeNamed only).
	Name string
}

// Call is one call or tail-call site of a fingerprinted body.
type Call struct {
	Inst   int
	Target string
}

// FP is the fingerprint of one procedure body: a 64-bit grouping hash
// plus the full canonical encoding it was computed over (the authority
// for equivalence), the register assignment, and the call sites.
type FP struct {
	hash uint64
	enc  []byte
	// regs lists the actual registers in canonical-assignment order
	// (pinned registers are not listed — equal encodings already imply
	// equal pinned-register usage).
	regs  []asm.Reg
	calls []Call
}

// Hash returns the 64-bit grouping hash. Group candidates by it, then
// confirm with EquivalentTo.
func (fp *FP) Hash() uint64 { return fp.hash }

// EquivalentTo reports whether the two bodies have identical canonical
// encodings — the collision-checked equivalence behind the hash.
func (fp *FP) EquivalentTo(other *FP) bool {
	return fp.hash == other.hash && bytes.Equal(fp.enc, other.enc)
}

// SameRegisters reports whether other uses exactly the registers fp
// does (no scratch-register renaming between the two bodies). Together
// with EquivalentTo this means the instruction streams are identical up
// to label names, JCC mnemonics and call-target names — the condition
// under which the CFG analyses carry over (cfg.ProcInfo.CloneForProgram).
func (fp *FP) SameRegisters(other *FP) bool {
	if len(fp.regs) != len(other.regs) {
		return false
	}
	for i := range fp.regs {
		if fp.regs[i] != other.regs[i] {
			return false
		}
	}
	return true
}

// Calls lists the body's call and tail-call sites in instruction order.
func (fp *FP) Calls() []Call { return fp.calls }

// encVersion versions the canonical encoding's layout. DecodeFP refuses
// blobs of other versions; bump it whenever the encoded content changes
// shape (the engine's persisted sessions and the property tests pin the
// round trip). v3: computed from the raw instruction stream — the
// header carries the entry-liveness register mask and CtxSig instead of
// the analyzed formal list and HasOut (both derivable; see the package
// comment).
const encVersion = 3

// seed is the process-stable seed of the grouping hash. The hash is a
// grouping accelerator only — it is recomputed from the (portable)
// canonical encoding on decode, never shipped.
var seed = maphash.MakeSeed()

// register symmetry classes (slot order is fixed; pinned members are
// skipped when slots are handed out).
var regClasses = [2][]asm.Reg{
	{asm.ECX, asm.EDX},
	{asm.EBX, asm.ESI, asm.EDI},
}

// classOf maps a register to its symmetry-class index, or -1 if the
// register is never renamed.
func classOf(r asm.Reg) int {
	switch r {
	case asm.ECX, asm.EDX:
		return 0
	case asm.EBX, asm.ESI, asm.EDI:
		return 1
	default:
		return -1
	}
}

const unassigned = asm.Reg(0xfe)

// Compute fingerprints proc's body from its raw instruction stream.
// calleeID supplies the identity of every call target; returning
// ok == false marks the target (and hence this body) ineligible, and
// Compute returns nil. The caller is responsible for excluding
// procedures that are ineligible for reasons outside the body
// (multi-member SCCs, self-calls, reserved characters in the
// procedure's own name, trace-restricted generation).
func Compute(proc *asm.Proc, conf Config, calleeID func(target string) (CalleeID, bool)) *FP {
	return ComputeWithLiveMask(proc, conf, calleeID, cfg.EntryLiveRegs(proc))
}

// ComputeWithLiveMask is Compute for callers that already know the
// entry-liveness mask (a cfg.ProcInfo's EntryLive, when the front end
// has run) — it skips the block rebuild EntryLiveRegs would do. The
// mask is an input to the encoding, not an identity field: passing the
// value EntryLiveRegs(proc) would return yields the identical
// fingerprint.
func ComputeWithLiveMask(proc *asm.Proc, conf Config, calleeID func(target string) (CalleeID, bool), liveMask uint8) *FP {
	fp := &FP{}
	insts := proc.Insts
	enc := make([]byte, 0, 16+12*len(insts))

	// Header: options, lattice, run context, interface.
	var optBits byte
	if conf.MonomorphicCalls {
		optBits |= 1
	}
	if conf.PolymorphicExternals {
		optBits |= 2
	}
	if conf.NoConstantSuppression {
		optBits |= 4
	}
	enc = append(enc, encVersion, optBits)
	enc = binary.AppendUvarint(enc, uint64(len(conf.LatticeSig)))
	enc = append(enc, conf.LatticeSig...)
	enc = binary.AppendUvarint(enc, uint64(len(conf.CtxSig)))
	enc = append(enc, conf.CtxSig...)

	// The register-parameter interface: the entry-liveness mask. It must
	// be explicit even though the registers it names are pinned below —
	// without it, a body using ebx as a parameter and a body using ebx
	// as its first {ebx,esi,edi}-class scratch register would canonize
	// to the same operand stream while having different type interfaces.
	// (Stack-slot formals and HasOut, by contrast, are derivable from
	// the encoded stream; see the package comment.)
	enc = append(enc, liveMask)

	// Canonical register assignment. Formal-in registers are pinned
	// before any instruction is scanned: their names are part of the
	// procedure's type interface.
	var canon [8]asm.Reg
	var pinned [8]bool
	for r := 0; r < 8; r++ {
		canon[r] = unassigned
	}
	pin := func(r asm.Reg) {
		if int(r) < 8 {
			canon[r] = r
			pinned[r] = true
		}
	}
	pin(asm.EAX)
	pin(asm.EBP)
	pin(asm.ESP)
	for r := asm.Reg(0); r < 6; r++ {
		if liveMask&cfg.RegBit(r) != 0 {
			pin(r)
		}
	}
	// Free slots per class, in fixed class order, pinned members
	// removed.
	var slots [2][]asm.Reg
	for ci, class := range regClasses {
		for _, r := range class {
			if !pinned[r] {
				slots[ci] = append(slots[ci], r)
			}
		}
	}
	nextSlot := [2]int{}
	canonOf := func(r asm.Reg) asm.Reg {
		if int(r) >= 8 {
			return r
		}
		if canon[r] != unassigned {
			return canon[r]
		}
		ci := classOf(r)
		if ci < 0 {
			canon[r] = r
			return r
		}
		c := slots[ci][nextSlot[ci]]
		nextSlot[ci]++
		canon[r] = c
		fp.regs = append(fp.regs, r)
		return c
	}

	// Label positions: block boundaries affect the flow-sensitive
	// analyses even when a label is never jumped to.
	labelPos := make([]int, 0, len(proc.Labels))
	for _, idx := range proc.Labels {
		labelPos = append(labelPos, idx)
	}
	sort.Ints(labelPos)
	enc = binary.AppendUvarint(enc, uint64(len(labelPos)))
	prev := 0
	for _, idx := range labelPos {
		enc = binary.AppendUvarint(enc, uint64(idx-prev))
		prev = idx
	}

	// Call-target name first-occurrence indices (see the package
	// comment on monomorphic linking).
	nameSeq := map[string]uint64{}
	encodeCallee := func(target string) bool {
		id, ok := calleeID(target)
		if !ok {
			return false
		}
		enc = append(enc, byte(id.Kind))
		switch id.Kind {
		case CalleeClass:
			enc = binary.AppendUvarint(enc, id.ID)
		case CalleeNamed:
			enc = binary.AppendUvarint(enc, uint64(len(id.Name)))
			enc = append(enc, id.Name...)
		}
		seq, ok := nameSeq[target]
		if !ok {
			seq = uint64(len(nameSeq))
			nameSeq[target] = seq
		}
		enc = binary.AppendUvarint(enc, seq)
		return true
	}
	operand := func(o asm.Operand) {
		enc = append(enc, byte(o.Kind))
		switch o.Kind {
		case asm.OpReg:
			enc = append(enc, byte(canonOf(o.Reg)))
		case asm.OpImm:
			enc = binary.AppendVarint(enc, int64(o.Imm))
		case asm.OpMem:
			enc = append(enc, byte(canonOf(o.Reg)))
			enc = binary.AppendVarint(enc, int64(o.Imm))
		}
	}

	enc = binary.AppendUvarint(enc, uint64(len(insts)))
	for i, in := range insts {
		enc = append(enc, byte(in.Op))
		switch in.Op {
		case asm.JCC:
			// Cond is display-only; the target label resolves to an
			// instruction index.
			enc = binary.AppendUvarint(enc, uint64(proc.Labels[in.Target]))
		case asm.JMP:
			if tgt, ok := proc.Labels[in.Target]; ok {
				enc = append(enc, 0)
				enc = binary.AppendUvarint(enc, uint64(tgt))
			} else {
				enc = append(enc, 1)
				if !encodeCallee(in.Target) {
					return nil
				}
				fp.calls = append(fp.calls, Call{Inst: i, Target: in.Target})
			}
		case asm.CALL:
			if !encodeCallee(in.Target) {
				return nil
			}
			fp.calls = append(fp.calls, Call{Inst: i, Target: in.Target})
		default:
			operand(in.Dst)
			operand(in.Src)
		}
	}

	fp.enc = enc
	fp.hash = maphash.Bytes(seed, enc)
	return fp
}
