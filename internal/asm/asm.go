// Package asm implements the machine-code substrate of the
// reproduction: a 32-bit x86-like assembly language with a textual
// format, standing in for the binaries that the paper's CodeSurfer
// front end disassembles (§4.1).
//
// The instruction set covers the idioms catalogued in §2 of the paper:
// register and memory moves with 8/16/32-bit widths, stack
// manipulation, arithmetic with the flag-only and constant-encoding
// special cases of Appendix A.5.2, direct and conditional jumps, calls,
// and tail-call jumps to other procedures.
package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Reg is a 32-bit general-purpose register.
type Reg uint8

// Register names.
const (
	EAX Reg = iota
	EBX
	ECX
	EDX
	ESI
	EDI
	EBP
	ESP
	NumRegs
	NoReg Reg = 0xff
)

var regNames = [...]string{"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"}

// String renders the register name.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// ParseReg parses a register name.
func ParseReg(s string) (Reg, bool) {
	switch s {
	case "eax":
		return EAX, true
	case "ebx":
		return EBX, true
	case "ecx":
		return ECX, true
	case "edx":
		return EDX, true
	case "esi":
		return ESI, true
	case "edi":
		return EDI, true
	case "ebp":
		return EBP, true
	case "esp":
		return ESP, true
	}
	return NoReg, false
}

// OperandKind discriminates Operand.
type OperandKind uint8

const (
	// OpNone marks an absent operand.
	OpNone OperandKind = iota
	// OpReg is a register operand.
	OpReg
	// OpImm is an immediate constant.
	OpImm
	// OpMem is a memory operand [base+disp].
	OpMem
)

// Operand is an instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg   // OpReg, or the base register of OpMem
	Imm  int32 // OpImm value, or OpMem displacement
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: OpReg, Reg: r} }

// Imm makes an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OpImm, Imm: v} }

// Mem makes a memory operand [base+disp].
func Mem(base Reg, disp int32) Operand { return Operand{Kind: OpMem, Reg: base, Imm: disp} }

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpReg:
		return o.Reg.String()
	case OpImm:
		return strconv.Itoa(int(o.Imm))
	case OpMem:
		switch {
		case o.Imm > 0:
			return fmt.Sprintf("[%s+%d]", o.Reg, o.Imm)
		case o.Imm < 0:
			return fmt.Sprintf("[%s-%d]", o.Reg, -o.Imm)
		default:
			return fmt.Sprintf("[%s]", o.Reg)
		}
	default:
		return "<none>"
	}
}

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	NOP  Op = iota
	MOV     // mov dst, src (32-bit)
	MOVB    // 8-bit move
	MOVW    // 16-bit move
	LEA     // lea dst, [base+disp]
	PUSH
	POP
	ADD
	SUB
	IMUL
	XOR
	AND
	OR
	SHL
	SHR
	TEST
	CMP
	JMP // unconditional jump to label, or tail call to procedure
	JCC // any conditional jump (jz, jnz, jl, …)
	CALL
	RET
	LEAVE
)

var opNames = map[Op]string{
	NOP: "nop", MOV: "mov", MOVB: "movb", MOVW: "movw", LEA: "lea",
	PUSH: "push", POP: "pop", ADD: "add", SUB: "sub", IMUL: "imul",
	XOR: "xor", AND: "and", OR: "or", SHL: "shl", SHR: "shr",
	TEST: "test", CMP: "cmp", JMP: "jmp", JCC: "jcc", CALL: "call",
	RET: "ret", LEAVE: "leave",
}

// Bits reports the access width of a move opcode (32 for everything
// else).
func (op Op) Bits() int {
	switch op {
	case MOVB:
		return 8
	case MOVW:
		return 16
	default:
		return 32
	}
}

// Inst is one instruction. Control-flow targets are symbolic: Target
// names a label (JMP/JCC within the procedure) or a procedure
// (CALL/tail JMP).
type Inst struct {
	Op       Op
	Dst, Src Operand
	Target   string
	// Cond records the original mnemonic of a JCC ("jz", "jnz", …) for
	// display; all conditionals have the same CFG semantics here.
	Cond string
}

// String renders the instruction.
func (in Inst) String() string {
	name := opNames[in.Op]
	if in.Op == JCC {
		name = in.Cond
	}
	switch in.Op {
	case NOP, RET, LEAVE:
		return name
	case PUSH:
		return name + " " + in.Src.String()
	case POP:
		return name + " " + in.Dst.String()
	case JMP, JCC, CALL:
		return name + " " + in.Target
	case TEST, CMP:
		return fmt.Sprintf("%s %s, %s", name, in.Dst, in.Src)
	default:
		return fmt.Sprintf("%s %s, %s", name, in.Dst, in.Src)
	}
}

// Proc is a procedure: a named instruction sequence with resolved
// labels.
type Proc struct {
	Name   string
	Insts  []Inst
	Labels map[string]int // label → instruction index
}

// EqualBody reports whether other has the byte-for-byte same body as
// p: identical instruction streams (including display-only JCC
// mnemonics) and identical label names at identical positions. The
// procedures' names may differ. Incremental re-analysis uses it to
// decide which per-procedure CFG analyses can be reused verbatim.
func (p *Proc) EqualBody(other *Proc) bool {
	if len(p.Insts) != len(other.Insts) || len(p.Labels) != len(other.Labels) {
		return false
	}
	for i := range p.Insts {
		if p.Insts[i] != other.Insts[i] {
			return false
		}
	}
	for name, idx := range p.Labels {
		if oidx, ok := other.Labels[name]; !ok || oidx != idx {
			return false
		}
	}
	return true
}

// Program is a parsed assembly module.
type Program struct {
	Procs     []*Proc
	ProcIndex map[string]*Proc
}

// Proc returns the procedure named name, if present.
func (p *Program) Proc(name string) (*Proc, bool) {
	pr, ok := p.ProcIndex[name]
	return pr, ok
}

// NumInsts reports the total instruction count of the program (the
// size measure N used by the scaling experiments, Figure 11).
func (p *Program) NumInsts() int {
	n := 0
	for _, pr := range p.Procs {
		n += len(pr.Insts)
	}
	return n
}

// ParseError is a structured parse failure: Line is the 1-based source
// line the error is anchored to (0 when the failure is not tied to one,
// like a missing endproc), Msg the bare message. It renders as the
// historical "asm:LINE: message" text, so callers that matched the
// string keep working; new callers (the CLIs' file:line diagnostics,
// the future server's input validation) destructure it instead.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("asm:%d: %s", e.Line, e.Msg)
	}
	return "asm: " + e.Msg
}

// parseErrf builds a *ParseError anchored to line.
func parseErrf(line int, format string, args ...any) *ParseError {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses the textual assembly format:
//
//	; comment
//	proc name
//	loop:
//	    mov eax, [ebp+8]
//	    jnz loop
//	    call helper
//	    ret
//	endproc
//
// Labels end with ':'. Numbers may be decimal or 0x-prefixed hex.
//
// Parse is one pass over src: lines are cut with IndexByte and
// tokenised in place, so procedure names, label keys and jump/call
// targets are substrings of src, which the Program keeps alive. Each
// procedure's instructions are collected in a scratch slice and copied
// into an exact-size Insts of its own at endproc, so a Proc retained
// past its Program pins only its own instructions. Whitespace is what
// strings.Fields and strings.TrimSpace take it to be (unicode.IsSpace),
// except that a mnemonic ends at the first ASCII space or tab.
func Parse(src string) (*Program, error) {
	prog := &Program{ProcIndex: map[string]*Proc{}}
	var (
		cur    *Proc
		insts  []Inst     // cur's instructions so far
		labels []labelDef // cur's labels so far, in source order
	)
	semi := -1 // index of the first ';' at or after pos (len(src) if none)
	for pos, lineNo := 0, 1; pos <= len(src); lineNo++ {
		end := strings.IndexByte(src[pos:], '\n')
		if end < 0 {
			end = len(src)
		} else {
			end += pos
		}
		if semi < pos {
			if semi = strings.IndexByte(src[pos:], ';'); semi < 0 {
				semi = len(src)
			} else {
				semi += pos
			}
		}
		line := strings.TrimSpace(src[pos:min(end, semi)])
		pos = end + 1
		if line == "" {
			continue
		}
		// The line's first field decides its kind; only directives and
		// labels need it cut out.
		switch {
		case isKeyword(line, "proc"):
			if cur != nil {
				return nil, parseErrf(lineNo, "nested proc")
			}
			_, tail := cutField(line)
			if tail == "" {
				return nil, parseErrf(lineNo, "proc needs a name")
			}
			name, _ := cutField(tail)
			cur = &Proc{Name: name}
			insts, labels = insts[:0], labels[:0]
			continue
		case isKeyword(line, "endproc"):
			if cur == nil {
				return nil, parseErrf(lineNo, "endproc outside proc")
			}
			if prog.ProcIndex[cur.Name] != nil {
				return nil, parseErrf(lineNo, "duplicate proc %q", cur.Name)
			}
			if len(insts) > 0 {
				cur.Insts = make([]Inst, len(insts))
				copy(cur.Insts, insts)
			}
			cur.Labels = make(map[string]int, len(labels))
			for _, l := range labels {
				cur.Labels[l.name] = l.idx
			}
			prog.Procs = append(prog.Procs, cur)
			prog.ProcIndex[cur.Name] = cur
			cur = nil
			continue
		}
		if cur == nil {
			return nil, parseErrf(lineNo, "instruction outside proc: %q", line)
		}
		if line[len(line)-1] == ':' {
			if head, tail := cutField(line); tail == "" {
				labels = append(labels, labelDef{name: head[:len(head)-1], idx: len(insts)})
				continue
			}
		}
		inst, err := parseInst(line)
		if err != nil {
			return nil, parseErrf(lineNo, "%v", err)
		}
		insts = append(insts, inst)
	}
	if cur != nil {
		return nil, parseErrf(0, "missing endproc for %q", cur.Name)
	}
	// Validate label targets.
	for _, pr := range prog.Procs {
		for i, in := range pr.Insts {
			if in.Op == JCC {
				if _, ok := pr.Labels[in.Target]; !ok {
					return nil, parseErrf(0, "%s:%d: unknown label %q", pr.Name, i, in.Target)
				}
			}
		}
	}
	return prog, nil
}

// labelDef is a label of the procedure being parsed.
type labelDef struct {
	name string
	idx  int
}

// MustParse panics on error; for statically known sources.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// spaceAt decodes the rune at s[i], reporting whether it is whitespace
// (unicode.IsSpace, the notion strings.Fields and strings.TrimSpace
// use) and its width in bytes.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// isKeyword reports whether kw is the first field of s, a trimmed
// non-empty line.
func isKeyword(s, kw string) bool {
	if s[0] != kw[0] || !strings.HasPrefix(s, kw) {
		return false
	}
	if len(s) == len(kw) {
		return true
	}
	sp, _ := spaceAt(s, len(kw))
	return sp
}

// cutField splits s, which starts with a non-space, at its first
// whitespace rune: head is strings.Fields(s)[0] and tail is the rest
// of s with its leading whitespace removed, so tail is empty exactly
// when s is a single field.
func cutField(s string) (head, tail string) {
	i := 0
	for i < len(s) {
		sp, w := spaceAt(s, i)
		if sp {
			break
		}
		i += w
	}
	head = s[:i]
	for i < len(s) {
		sp, w := spaceAt(s, i)
		if !sp {
			break
		}
		i += w
	}
	return head, s[i:]
}

// parseInst parses one trimmed, comment-free instruction line. The
// mnemonic ends at the first space or tab; the operands are the
// comma-separated, whitespace-trimmed pieces of the rest.
func parseInst(line string) (Inst, error) {
	mnemonic, rest := line, ""
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' {
			mnemonic, rest = line[:i], strings.TrimSpace(line[i:])
			break
		}
	}
	// nargs counts the comma-separated operands (capped at 3: every
	// mnemonic takes at most 2); a0 and a1 are the first two.
	nargs := 0
	var a0, a1 string
	if rest != "" {
		nargs, a0 = 1, rest
		if c := strings.IndexByte(rest, ','); c >= 0 {
			nargs, a0, a1 = 2, strings.TrimSpace(rest[:c]), strings.TrimSpace(rest[c+1:])
			if strings.IndexByte(rest[c+1:], ',') >= 0 {
				nargs = 3
			}
		}
	}

	var op Op
	switch mnemonic {
	case "jz", "jnz", "je", "jne", "jl", "jle", "jg", "jge", "ja", "jae", "jb", "jbe", "js", "jns":
		if nargs != 1 {
			return Inst{}, fmt.Errorf("%s needs a label", mnemonic)
		}
		return Inst{Op: JCC, Target: a0, Cond: mnemonic}, nil
	case "nop":
		return Inst{Op: NOP}, nil
	case "ret":
		return Inst{Op: RET}, nil
	case "leave":
		return Inst{Op: LEAVE}, nil
	case "jmp":
		if nargs != 1 {
			return Inst{}, fmt.Errorf("jmp needs a target")
		}
		return Inst{Op: JMP, Target: a0}, nil
	case "call":
		if nargs != 1 {
			return Inst{}, fmt.Errorf("call needs a target")
		}
		return Inst{Op: CALL, Target: a0}, nil
	case "push":
		if nargs != 1 {
			return Inst{}, fmt.Errorf("push needs an operand")
		}
		o, err := parseOperand(a0)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, Src: o}, nil
	case "pop":
		if nargs != 1 {
			return Inst{}, fmt.Errorf("pop needs a register")
		}
		o, err := parseOperand(a0)
		if err != nil {
			return Inst{}, err
		}
		if o.Kind != OpReg {
			return Inst{}, fmt.Errorf("pop needs a register")
		}
		return Inst{Op: POP, Dst: o}, nil
	case "mov":
		op = MOV
	case "movb":
		op = MOVB
	case "movw":
		op = MOVW
	case "lea":
		op = LEA
	case "add":
		op = ADD
	case "sub":
		op = SUB
	case "imul":
		op = IMUL
	case "xor":
		op = XOR
	case "and":
		op = AND
	case "or":
		op = OR
	case "shl":
		op = SHL
	case "shr":
		op = SHR
	case "test":
		op = TEST
	case "cmp":
		op = CMP
	default:
		return Inst{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	if nargs != 2 {
		return Inst{}, fmt.Errorf("%s needs 2 operands", mnemonic)
	}
	dst, err := parseOperand(a0)
	if err != nil {
		return Inst{}, err
	}
	src, err := parseOperand(a1)
	if err != nil {
		return Inst{}, err
	}
	if op == LEA && src.Kind != OpMem {
		return Inst{}, fmt.Errorf("lea needs a memory source")
	}
	if dst.Kind == OpMem && src.Kind == OpMem {
		return Inst{}, fmt.Errorf("%s: memory-to-memory not allowed", mnemonic)
	}
	return Inst{Op: op, Dst: dst, Src: src}, nil
}

func parseOperand(s string) (Operand, error) {
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		body := strings.ReplaceAll(s[1:len(s)-1], " ", "")
		sign := int32(1)
		var regPart, numPart string
		if i := strings.IndexByte(body, '+'); i >= 0 {
			regPart, numPart = body[:i], body[i+1:]
		} else if i := strings.IndexByte(body, '-'); i >= 0 {
			regPart, numPart = body[:i], body[i+1:]
			sign = -1
		} else {
			regPart = body
		}
		r, ok := ParseReg(regPart)
		if !ok {
			return Operand{}, fmt.Errorf("bad base register %q", regPart)
		}
		var disp int64
		if numPart != "" {
			var err error
			disp, err = strconv.ParseInt(numPart, 0, 32)
			if err != nil {
				return Operand{}, fmt.Errorf("bad displacement %q", numPart)
			}
		}
		return Mem(r, int32(disp)*sign), nil
	}
	if r, ok := ParseReg(s); ok {
		return R(r), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return Operand{}, fmt.Errorf("bad operand %q", s)
	}
	return Imm(int32(v)), nil
}
