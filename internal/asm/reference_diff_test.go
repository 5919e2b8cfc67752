package asm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"retypd/internal/corpus"
)

// checkSameAsReference requires Parse and referenceParse to agree on
// src: a deeply equal *Program, or *ParseErrors with the same Line and
// Msg.
func checkSameAsReference(t testing.TB, src string) {
	t.Helper()
	got, gerr := Parse(src)
	want, werr := referenceParse(src)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Parse error %v, reference error %v, on %q", gerr, werr, src)
	}
	if werr != nil {
		var gpe, wpe *ParseError
		if !errors.As(gerr, &gpe) || !errors.As(werr, &wpe) {
			t.Fatalf("non-ParseError: Parse %T %v, reference %T %v", gerr, gerr, werr, werr)
		}
		if gpe.Line != wpe.Line || gpe.Msg != wpe.Msg {
			t.Fatalf("Parse error (%d, %q), reference (%d, %q), on %q", gpe.Line, gpe.Msg, wpe.Line, wpe.Msg, src)
		}
		if got != nil {
			t.Fatal("Parse returned both a program and an error")
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse and reference programs differ on %q", src)
	}
}

// TestParseMatchesReferenceOnCorpus: on generated programs of every
// size the benchmark uses, and on fleet binaries, the single-pass
// scanner builds exactly the reference parser's Program.
func TestParseMatchesReferenceOnCorpus(t *testing.T) {
	var srcs []string
	for i, n := range []int{4000, 16000, 32000} {
		srcs = append(srcs, corpus.Generate(fmt.Sprintf("diff%d", n), int64(i+1), n).Source)
	}
	for _, b := range corpus.GenerateFleet("difffleet", 7, 4000, 3, 0.5) {
		srcs = append(srcs, b.Source)
	}
	for _, src := range srcs {
		checkSameAsReference(t, src)
	}
}

// TestParseMatchesReferenceOnMutations: line-level damage to a small
// generated program — Unicode and ASCII-control whitespace, stray
// commas and brackets, dropped and duplicated lines, truncation —
// drives both parsers down their error paths, which must agree on
// line and message.
func TestParseMatchesReferenceOnMutations(t *testing.T) {
	base := corpus.Generate("mut", 3, 400).Source
	lines := strings.Split(base, "\n")
	edits := []func(string) string{
		func(l string) string { return strings.Replace(l, " ", "\u00a0", 1) },
		func(l string) string { return strings.Replace(l, " ", "\u2003", -1) },
		func(l string) string { return strings.Replace(l, " ", "\v", 1) },
		func(l string) string { return strings.Replace(l, ", ", "\t,\u3000", 1) },
		func(l string) string { return "\u0085" + l + "\r" },
		func(l string) string { return l + " \u2028" },
		func(l string) string { return strings.Replace(l, ",", ",,", 1) },
		func(l string) string { return strings.Replace(l, "]", "", 1) },
		func(l string) string { return strings.Replace(l, "[", "[ ", 1) },
		func(l string) string { return strings.Replace(l, "+", "--", 1) },
		func(l string) string { return strings.Replace(l, "e", "\xe2\x80", 1) },
		func(l string) string { return l + ":" },
		func(l string) string { return strings.TrimSuffix(l, ":") + " x:" },
		func(l string) string { return "" },
		func(l string) string { return l + "\n" + l },
		func(l string) string { return l + " ; " + l },
	}
	for i := range lines {
		for k, edit := range edits {
			if (i+k)%3 != 0 { // a third of the (line, edit) grid keeps the test fast
				continue
			}
			mutated := append([]string(nil), lines...)
			mutated[i] = edit(lines[i])
			checkSameAsReference(t, strings.Join(mutated, "\n"))
		}
		checkSameAsReference(t, strings.Join(lines[:i], "\n"))
	}
}

// TestParseMatchesReferenceOnEdgeCases pins the whitespace, label and
// operand corners where an in-place tokeniser could drift from
// Split/Fields/TrimSpace semantics.
func TestParseMatchesReferenceOnEdgeCases(t *testing.T) {
	for _, src := range []string{
		"",
		"\n\n",
		";only a comment",
		"proc",
		"proc\u00a0f\nret\nendproc",
		"proc f g h\nret\nendproc extra",
		"proc f\n:\nret\nendproc",
		"proc f\na::\njz a:\nret\nendproc",
		"proc f\nl:\nl:\nret\njz l\nendproc",
		"proc f\nl: \u2000\njz l\nendproc",
		"proc f\nl\u2000:\nendproc",
		"proc f\nret\u000bfoo\nendproc",
		"proc f\nmov\u00a0eax, ebx\nendproc",
		"proc f\ncall foo bar\njmp  a  b \nendproc",
		"proc f\njz\nendproc",
		"proc f\njz a, b\nendproc",
		"proc f\nmov eax\nendproc",
		"proc f\nmov eax, ebx, ecx\nendproc",
		"proc f\nmov ,\nendproc",
		"proc f\nmov eax,\nendproc",
		"proc f\nmov [eax], [ebx]\nendproc",
		"proc f\nmov eax, [ebp + 8]\nmov eax, [ebp - 0x10]\nmov eax, [ebp--5]\nmov eax, [ebp+-5]\nendproc",
		"proc f\nmov eax, [\tebp+8]\nendproc",
		"proc f\nmov eax, []\nendproc",
		"proc f\nmov eax, [ebp+99999999999]\nendproc",
		"proc f\nmov eax, [ebp-2147483648]\nendproc",
		"proc f\nmov eax, 0b101\nmov eax, 0o17\nmov eax, 1_000\nmov eax, +7\nmov eax, -0x80000000\nendproc",
		"proc f\nmov eax, 99999999999999999999\nendproc",
		"proc f\npush [esp+4]\npop [esp]\nendproc",
		"proc f\npop 5\nendproc",
		"proc f\nlea eax, 4\nendproc",
		"proc f\nnop a, b, c\nret x\nleave ,\nendproc",
		"proc f\nproc g\n",
		"proc f\nret\n",
		"endproc\n",
		"proc f\nret\nendproc\nproc f\nret\nendproc",
		"proc f\njz nowhere\nret\nendproc\nbogus",
		"proc f\n\xff\nendproc",
		"proc f\nmov\xa0eax, ebx\nendproc",
		"proc f\nx\u2000\x80\nendproc",
		"proc f\r\nret\r\nendproc\r\n",
		"proc e\nendproc\nproc g\nl:\nendproc",
	} {
		checkSameAsReference(t, src)
	}
}
