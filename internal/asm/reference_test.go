package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// refCondNames is the conditional-mnemonic table referenceParse
// dispatches through.
var refCondNames = map[string]bool{
	"jz": true, "jnz": true, "je": true, "jne": true, "jl": true,
	"jle": true, "jg": true, "jge": true, "ja": true, "jae": true,
	"jb": true, "jbe": true, "js": true, "jns": true,
}

// refParseReg is the register lookup referenceParse uses.
func refParseReg(s string) (Reg, bool) {
	for i, n := range regNames {
		if n == s {
			return Reg(i), true
		}
	}
	return NoReg, false
}

// referenceParse is the parser Parse replaced, kept verbatim
// (Split/Fields/splitArgs tokenising, map-based dispatch) as the
// differential oracle for the single-pass scanner. It parses the
// textual assembly format:
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
func referenceParse(src string) (*Program, error) {
	prog := &Program{ProcIndex: map[string]*Proc{}}
	var cur *Proc
	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "proc":
			if cur != nil {
				return nil, parseErrf(lineNo, "nested proc")
			}
			if len(fields) < 2 {
				return nil, parseErrf(lineNo, "proc needs a name")
			}
			cur = &Proc{Name: fields[1], Labels: map[string]int{}}
			continue
		case "endproc":
			if cur == nil {
				return nil, parseErrf(lineNo, "endproc outside proc")
			}
			if prog.ProcIndex[cur.Name] != nil {
				return nil, parseErrf(lineNo, "duplicate proc %q", cur.Name)
			}
			prog.Procs = append(prog.Procs, cur)
			prog.ProcIndex[cur.Name] = cur
			cur = nil
			continue
		}
		if cur == nil {
			return nil, parseErrf(lineNo, "instruction outside proc: %q", line)
		}
		if strings.HasSuffix(fields[0], ":") && len(fields) == 1 {
			cur.Labels[strings.TrimSuffix(fields[0], ":")] = len(cur.Insts)
			continue
		}
		inst, err := refParseInst(line)
		if err != nil {
			return nil, parseErrf(lineNo, "%v", err)
		}
		cur.Insts = append(cur.Insts, inst)
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

func refParseInst(line string) (Inst, error) {
	sp := strings.IndexAny(line, " \t")
	mnemonic := line
	rest := ""
	if sp >= 0 {
		mnemonic = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	args := refSplitArgs(rest)

	if refCondNames[mnemonic] {
		if len(args) != 1 {
			return Inst{}, fmt.Errorf("%s needs a label", mnemonic)
		}
		return Inst{Op: JCC, Target: args[0], Cond: mnemonic}, nil
	}
	switch mnemonic {
	case "nop":
		return Inst{Op: NOP}, nil
	case "ret":
		return Inst{Op: RET}, nil
	case "leave":
		return Inst{Op: LEAVE}, nil
	case "jmp":
		if len(args) != 1 {
			return Inst{}, fmt.Errorf("jmp needs a target")
		}
		return Inst{Op: JMP, Target: args[0]}, nil
	case "call":
		if len(args) != 1 {
			return Inst{}, fmt.Errorf("call needs a target")
		}
		return Inst{Op: CALL, Target: args[0]}, nil
	case "push":
		if len(args) != 1 {
			return Inst{}, fmt.Errorf("push needs an operand")
		}
		op, err := refParseOperand(args[0])
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, Src: op}, nil
	case "pop":
		if len(args) != 1 {
			return Inst{}, fmt.Errorf("pop needs a register")
		}
		op, err := refParseOperand(args[0])
		if err != nil {
			return Inst{}, err
		}
		if op.Kind != OpReg {
			return Inst{}, fmt.Errorf("pop needs a register")
		}
		return Inst{Op: POP, Dst: op}, nil
	}

	var op Op
	switch mnemonic {
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
	if len(args) != 2 {
		return Inst{}, fmt.Errorf("%s needs 2 operands", mnemonic)
	}
	dst, err := refParseOperand(args[0])
	if err != nil {
		return Inst{}, err
	}
	src, err := refParseOperand(args[1])
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

func refSplitArgs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func refParseOperand(s string) (Operand, error) {
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		body := s[1 : len(s)-1]
		body = strings.ReplaceAll(body, " ", "")
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
		r, ok := refParseReg(regPart)
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
	if r, ok := refParseReg(s); ok {
		return R(r), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return Operand{}, fmt.Errorf("bad operand %q", s)
	}
	return Imm(int32(v)), nil
}
