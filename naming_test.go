package retypd

import (
	"context"
	"strings"
	"testing"

	"retypd/internal/corpus"
	"retypd/internal/intern"
)

// procNamedLikeLocalAsm: at instruction 1, f loads through eax, the
// definition a name-scoped generator would call f!eax@1; a procedure of
// that name sits in f's SCC.
const procNamedLikeLocalAsm = `
proc f
    mov eax, [esp+4]
    mov eax, [eax]
    mov ecx, [eax+8]
    push eax
    call f!eax@1
    add esp, 4
    ret
endproc

proc f!eax@1
    mov eax, [esp+4]
    push eax
    call f
    add esp, 4
    ret
endproc
`

// TestProcNamedLikeLocal: a procedure's name never captures a variable
// the constraint generator mints, so its program types exactly like a
// twin whose procedure has a plain name.
func TestProcNamedLikeLocal(t *testing.T) {
	const odd = "f!eax@1"
	res := Infer(MustParseAsm(procNamedLikeLocalAsm), nil)
	twin := Infer(MustParseAsm(strings.ReplaceAll(procNamedLikeLocalAsm, odd, "g")), nil)
	for _, names := range [][2]string{{"f", "f"}, {odd, "g"}} {
		got := strings.Replace(res.Signature(names[0]).String(), odd+"(", "g(", 1)
		want := twin.Signature(names[1]).String()
		if got != want {
			t.Errorf("%s: got %s, renamed twin gives %s", names[0], got, want)
		}
	}
}

// renameProcs rewrites src with every procedure name prefixed, where
// the procedure is defined and wherever it is called or tail-called.
func renameProcs(src, prefix string) string {
	prog := MustParseAsm(src)
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) == 2 && (f[0] == "proc" || f[0] == "call" || f[0] == "jmp") && prog.ProcIndex[f[1]] != nil {
			lines[i] = f[0] + " " + prefix + f[1]
		}
	}
	return strings.Join(lines, "\n")
}

// TestRenamedRerunMintsOnlyProcNames pins the bound on what inference
// interns: once a program has been inferred, inferring it again with
// every procedure renamed interns exactly the new procedure names. The
// generator's locals and callsite instantiations are named by SCC slot
// and callsite, so they recur; the memo layers are off so that every
// procedure is generated, simplified and solved afresh.
func TestRenamedRerunMintsOnlyProcNames(t *testing.T) {
	src := corpus.Generate("mint", 5, 4000).Source
	cfg := &Config{NoBodyDedup: true, NoSchemeCache: true, NoShapeCache: true}
	Infer(MustParseAsm(src), cfg)

	twin := MustParseAsm(renameProcs(src, "renamed_"))
	for _, p := range twin.Procs {
		if !strings.HasPrefix(p.Name, "renamed_") {
			t.Fatalf("procedure %s was not renamed", p.Name)
		}
	}
	syms0, _, _ := intern.GlobalStats()
	Infer(twin, cfg)
	syms1, _, _ := intern.GlobalStats()
	if got, want := syms1-syms0, len(twin.Procs); got != want {
		t.Errorf("renamed rerun interned %d symbols, want one per procedure (%d)", got, want)
	}
}

// TestCallToIneligibleName: a procedure that calls a name body dedup
// cannot bind (a GCC-style local symbol like memcpy.part.0, a procedure
// named like a minted variable) takes the full path instead of
// faulting, and its output equals a run without body dedup.
func TestCallToIneligibleName(t *testing.T) {
	src := procNamedLikeLocalAsm + `
proc main
    mov eax, [esp+4]
    push eax
    call memcpy.part.0
    push eax
    call f!eax@1
    add esp, 8
    ret
endproc
`
	res, err := InferContext(context.Background(), MustParseAsm(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := InferContext(context.Background(), MustParseAsm(src), &Config{NoBodyDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Report(), plain.Report(); got != want {
		t.Errorf("report with body dedup:\n%s\nwithout:\n%s", got, want)
	}
}
