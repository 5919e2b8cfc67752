package asm

import (
	"sort"
	"strings"
	"testing"
)

// TestParseBasics exercises the core syntax.
func TestParseBasics(t *testing.T) {
	p, err := Parse(`
; a comment
proc f
start:
    mov eax, [ebp+8]
    movb cl, [eax]      ; parse error expected? no: cl is not a register
endproc
`)
	if err == nil {
		t.Errorf("cl should not parse as a register, got %v", p)
	}

	p, err = Parse(`
proc f
top:
    mov eax, [ebp+8]
    mov [esp-4], eax
    add eax, 0x10
    push 42
    pop ecx
    lea edx, [esp+12]
    test eax, eax
    jnz top
    call g
    jmp g
    ret
endproc

proc g
    xor eax, eax
    ret
endproc
`)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := p.Proc("f")
	if !ok {
		t.Fatal("missing f")
	}
	if len(f.Insts) != 11 {
		t.Errorf("f has %d instructions", len(f.Insts))
	}
	if f.Labels["top"] != 0 {
		t.Errorf("label top at %d", f.Labels["top"])
	}
	if got := f.Insts[2]; got.Op != ADD || got.Src.Imm != 16 {
		t.Errorf("hex immediate: %v", got)
	}
	if p.NumInsts() != 13 {
		t.Errorf("NumInsts = %d", p.NumInsts())
	}
}

// TestParseErrors enumerates rejected inputs.
func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"mov eax, ebx", // outside proc
		"proc f\nret",  // missing endproc
		"proc f\nret\nendproc\nproc f\nret\nendproc", // duplicate
		"proc f\njz nowhere\nret\nendproc",           // unknown label
		"proc f\nmov [eax], [ebx]\nret\nendproc",     // mem-to-mem
		"proc f\nlea eax, ebx\nret\nendproc",         // lea needs memory
		"proc f\nbogus eax, 1\nret\nendproc",         // unknown mnemonic
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestOperandRendering: String forms round trip through the parser.
func TestOperandRendering(t *testing.T) {
	src := `
proc f
    mov eax, [ebp-12]
    movw [esi+2], ecx
    sub esp, 8
    jle done
done:
    leave
    ret
endproc
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, in := range p.Procs[0].Insts {
		lines = append(lines, in.String())
	}
	text := strings.Join(lines, "\n")
	for _, want := range []string{"[ebp-12]", "movw [esi+2], ecx", "jle done", "leave"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q in:\n%s", want, text)
		}
	}
	// Reparse the rendered body (labels re-inserted at their indices).
	var withLabels []string
	for i, in := range p.Procs[0].Insts {
		var names []string
		for name, idx := range p.Procs[0].Labels {
			if idx == i {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			withLabels = append(withLabels, name+":")
		}
		withLabels = append(withLabels, in.String())
	}
	if _, err := Parse("proc f\n" + strings.Join(withLabels, "\n") + "\nendproc\n"); err != nil {
		t.Errorf("rendered instructions do not reparse: %v", err)
	}
}

// TestConditionalZoo: every conditional mnemonic parses to JCC.
func TestConditionalZoo(t *testing.T) {
	for _, cond := range []string{
		"jz", "jnz", "je", "jne", "jl", "jle", "jg", "jge",
		"ja", "jae", "jb", "jbe", "js", "jns",
	} {
		src := "proc f\nl:\n    " + cond + " l\n    ret\nendproc\n"
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		if p.Procs[0].Insts[0].Op != JCC || p.Procs[0].Insts[0].Cond != cond {
			t.Errorf("%s parsed to %v", cond, p.Procs[0].Insts[0])
		}
	}
}
