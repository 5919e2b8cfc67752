package asm

import (
	"testing"

	"retypd/internal/corpus"
)

// TestParseAllocsPerProcedure is the parser's deterministic allocation
// guard: Parse allocates per procedure (its Proc, exact-size Insts and
// label map), plus logarithmically many growths of Procs and
// ProcIndex, and nothing
// per line or per instruction.
func TestParseAllocsPerProcedure(t *testing.T) {
	src := corpus.Generate("allocs", 1, 16000).Source
	prog := MustParse(src)
	allocs := testing.AllocsPerRun(5, func() { MustParse(src) })
	t.Logf("%d procedures, %d instructions, %.0f allocs", len(prog.Procs), prog.NumInsts(), allocs)
	if limit := float64(4*len(prog.Procs) + 64); allocs > limit {
		t.Fatalf("Parse made %.0f allocations on %d procedures (limit %.0f): it allocates per line or instruction again",
			allocs, len(prog.Procs), limit)
	}
}
