package asm

import (
	"errors"
	"os"
	"strings"
	"testing"

	"retypd/internal/fuzzcorpus"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus; set
// RETYPD_WRITE_FUZZ_CORPUS=1 after changing the source language.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("RETYPD_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set RETYPD_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	if err := fuzzcorpus.Write("testdata/fuzz/FuzzParseAsm", fuzzAsmSeeds()); err != nil {
		t.Fatal(err)
	}
}

// fuzzAsmSeeds covers the grammar's surface — every mnemonic family,
// labels, comments, hex literals, memory operands — plus the error
// paths (nested proc, dangling proc, unknown label, malformed operand)
// so the fuzzer starts from both sides of the accept/reject boundary.
func fuzzAsmSeeds() [][]byte {
	srcs := []string{
		"proc f\n  mov eax, [ebp+8]\n  ret\nendproc\n",
		"; comment\nproc g\nloop:\n  add eax, 1\n  jnz loop\n  call f\n  ret\nendproc\n",
		"proc h\n  mov ebx, 0x10\n  cmp eax, ebx\n  jz done\n  mov [esp+4], eax\ndone:\n  leave\n  ret\nendproc\n",
		"proc p\n  push eax\n  pop ebx\n  nop\n  ret\nendproc\n",
		"proc a\n  ret\nendproc\nproc b\n  call a\n  ret\nendproc\n",
		// Error paths.
		"proc f\nproc g\n",
		"proc f\n  jz nowhere\n  ret\nendproc\n",
		"mov eax, ebx\n",
		"proc f\n  mov\n  ret\nendproc\n",
		"proc f\n  mov eax, [ebp+\n  ret\nendproc\n",
		"proc f\n  ret\n",
		"endproc\n",
		// Non-ASCII and control whitespace, where the single-pass
		// scanner must keep strings.Fields/TrimSpace semantics.
		"proc\u00a0f\n\u2003mov eax,\u3000ebx\r\nl:\u2000\n  jz l\n  ret\vx\nendproc\n",
		"proc f\n  mov\u00a0eax, ebx\n  ret\nendproc\n",
	}
	out := make([][]byte, len(srcs))
	for i, s := range srcs {
		out[i] = []byte(s)
	}
	return out
}

// FuzzParseAsm: arbitrary source must either parse or fail with a
// structured *ParseError — never panic, never return both nil — and
// Parse must agree with referenceParse, the parser it replaced: a
// deeply equal Program, or the same error line and message. The
// parser is a trust boundary for the future server, so every rejection
// must be a typed, line-anchored error a caller can render. Accepted
// programs must be internally consistent (every JCC target resolved,
// every instruction renderable and individually re-parseable).
func FuzzParseAsm(f *testing.F) {
	for _, seed := range fuzzAsmSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSameAsReference(t, string(data))
		prog, err := Parse(string(data))
		if err != nil {
			if prog != nil {
				t.Fatal("Parse returned both a program and an error")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse error is not a *ParseError: %T %v", err, err)
			}
			if pe.Line < 0 || !strings.HasPrefix(pe.Error(), "asm:") {
				t.Fatalf("malformed ParseError: line=%d text=%q", pe.Line, pe.Error())
			}
			return
		}
		if prog == nil {
			t.Fatal("Parse returned neither a program nor an error")
		}
		for _, p := range prog.Procs {
			for _, in := range p.Insts {
				if in.Op == JCC {
					if _, ok := p.Labels[in.Target]; !ok {
						t.Fatalf("accepted program has unresolved label %q in %s", in.Target, p.Name)
					}
					continue // a lone jcc does not re-parse without its label
				}
				if s := in.String(); s != "" && in.Op != CALL {
					if _, err := parseInst(s); err != nil {
						t.Fatalf("accepted instruction %q does not re-parse: %v", s, err)
					}
				}
			}
		}
	})
}
