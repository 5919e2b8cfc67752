package solver

import (
	"strings"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/lattice"
)

// renameDedupProg rewrites dedupProgSrc with every procedure name
// prefixed — a distinct program whose bodies are all equivalent to the
// original's.
func renameDedupProg(prefix string) string {
	src := dedupProgSrc
	for _, name := range []string{
		"leaf_a", "leaf_b", "leaf_c", "leaf_other",
		"regvar_a", "regvar_b", "wrap_a", "wrap_b", "wrap_other",
		"selfrec", "main",
	} {
		src = strings.ReplaceAll(src, name, prefix+name)
	}
	return src
}

// TestEngineCrossProgramBodyServing: after analyzing one program, an
// engine serves a different program's equivalent bodies from the
// published entries — before the front end runs — with output
// byte-identical to a cold one-shot run of that program.
func TestEngineCrossProgramBodyServing(t *testing.T) {
	lat := lattice.Default()
	srcB := renameDedupProg("q_")
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		cold := must(oneShot(bg, asm.MustParse(srcB), lat, opts))

		eng := NewEngine()
		first := must(eng.InferContext(bg, asm.MustParse(dedupProgSrc), lat, nil, opts))
		if first.BodyDedupCrossHits != 0 {
			t.Fatalf("workers=%d: first run on a fresh engine reports %d cross-program hits",
				workers, first.BodyDedupCrossHits)
		}
		warm := must(eng.InferContext(bg, asm.MustParse(srcB), lat, nil, opts))
		if warm.BodyDedupCrossHits == 0 {
			t.Errorf("workers=%d: no cross-program body hits on an equivalent program", workers)
		}
		if dumpAll(cold) != dumpAll(warm) {
			t.Errorf("workers=%d: entry-served output differs from cold output", workers)
		}
	}
}

// TestEngineCrossProgramResolutionGuard: a stored entry whose
// CalleeNamed target was an external must not serve a consumer whose
// same-named target is a program procedure (and vice versa) — the two
// resolutions generate different constraints.
func TestEngineCrossProgramResolutionGuard(t *testing.T) {
	lat := lattice.Default()
	// In A, "helper" does not exist: the call resolves to an external.
	srcA := `
proc caller_a
    push 1
    call helper
    add esp, 4
    ret
endproc
`
	// In B, the identically-bodied caller's target IS a procedure —
	// self-recursive, so it stays outside class numbering and the call
	// site fingerprints as CalleeNamed in both programs, exactly like
	// A's external.
	srcB := `
proc helper
    mov eax, [ebp+8]
    call helper
    ret
endproc

proc caller_b
    push 1
    call helper
    add esp, 4
    ret
endproc
`
	opts := DefaultOptions()
	opts.Workers = 1
	cold := must(oneShot(bg, asm.MustParse(srcB), lat, opts))

	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(srcA), lat, nil, opts))
	warm := must(eng.InferContext(bg, asm.MustParse(srcB), lat, nil, opts))
	if warm.BodyDedupCrossHits != 0 {
		t.Errorf("resolution-flipped entry served %d members; the namedProc guard must refuse",
			warm.BodyDedupCrossHits)
	}
	if dumpAll(cold) != dumpAll(warm) {
		t.Error("resolution-flipped entry served: warm output differs from cold")
	}
}
