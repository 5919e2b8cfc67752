package solver

import (
	"testing"

	"retypd/internal/asm"
	"retypd/internal/label"
	"retypd/internal/lattice"
)

// TestExampleG2GetterSpecialization reproduces Example G.2: a getter
// equivalent to MyFile::filename has the highly polymorphic scheme
// ∀α,β.(β ⊑ dword, α.load.σ32@4 ⊑ β) ⇒ α → β, but every callsite
// passes a concrete object, so REFINEPARAMETERS (F.3) specializes the
// parameter to the observed struct — "the least polymorphic
// specialization compatible with the observed uses" (Example 4.3).
func TestExampleG2GetterSpecialization(t *testing.T) {
	src := `
; char *get_filename(const MyFile *this) { return this->m_filename; }
proc get_filename
    mov ecx, [esp+4]
    mov eax, [ecx+4]
    ret
endproc

; callers always pass a MyFile { FILE *m_handle; char *m_filename; }
proc open_and_name
    push 0
    push 0
    call fopen
    add esp, 8
    mov esi, eax         ; FILE *
    push 8
    call malloc
    add esp, 4
    mov [eax], esi       ; this->m_handle = f
    mov ecx, [esp+4]
    mov [eax+4], ecx     ; this->m_filename = name param
    push eax
    call get_filename
    add esp, 4
    push eax
    call puts
    add esp, 4
    ret
endproc
`
	prog := asm.MustParse(src)
	lat := lattice.Default()
	res := must(oneShot(bg, prog, lat, DefaultOptions()))

	g := res.Procs["get_filename"]
	// The unspecialized formal is polymorphic: only the σ32@4 field is
	// required; offset 0 is unconstrained.
	formal, ok := g.Sketch.Descend(label.Word{label.In("stack0")})
	if !ok {
		t.Fatal("no formal sketch")
	}
	if formal.Accepts(label.Word{label.Load(), label.Field(32, 0)}) {
		t.Errorf("unspecialized getter should not require offset 0:\n%s", formal)
	}

	// The specialized formal picks up the full MyFile shape from the
	// callsite: both fields present, with m_handle a FILE*.
	sp := g.SpecializedIns["stack0"]
	if sp == nil {
		t.Fatal("no specialized formal (F.3 did not run)")
	}
	if !sp.Accepts(label.Word{label.Store(), label.Field(32, 0)}) &&
		!sp.Accepts(label.Word{label.Load(), label.Field(32, 0)}) {
		t.Errorf("specialized getter should see the m_handle field:\n%s", sp)
	}
	if !sp.Accepts(label.Word{label.Load(), label.Field(32, 4)}) &&
		!sp.Accepts(label.Word{label.Store(), label.Field(32, 4)}) {
		t.Errorf("specialized getter lost its own field:\n%s", sp)
	}
}

// TestSpecializationDisabled: with NoSpecialize the F.3 pass is off and
// the formal stays maximally general.
func TestSpecializationDisabled(t *testing.T) {
	src := `
proc get0
    mov ecx, [esp+4]
    mov eax, [ecx]
    ret
endproc
proc use
    push 8
    call malloc
    add esp, 4
    mov esi, eax
    call rand
    mov [esi+4], eax
    push esi
    call get0
    add esp, 4
    ret
endproc
`
	prog := asm.MustParse(src)
	lat := lattice.Default()
	opts := DefaultOptions()
	opts.NoSpecialize = true
	res := must(oneShot(bg, prog, lat, opts))
	if len(res.Procs["get0"].SpecializedIns) != 0 {
		t.Error("NoSpecialize must disable F.3")
	}
}
