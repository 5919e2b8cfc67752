package solver

import (
	"testing"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
)

// TestAblationMonomorphicMalloc: with callsite tagging disabled, the
// two malloc-wrapper callers bleed into each other — the §2.2 argument
// for polymorphism.
func TestAblationMonomorphicMalloc(t *testing.T) {
	src := `
proc xalloc
    mov eax, [esp+4]
    push eax
    call malloc
    add esp, 4
    ret
endproc
proc mk_a
    push 8
    call xalloc
    add esp, 4
    mov esi, eax
    call rand
    mov [esi], eax
    mov eax, esi
    ret
endproc
proc mk_b
    push 8
    call xalloc
    add esp, 4
    mov esi, eax
    mov ecx, [esp+4]
    mov [esi+4], ecx
    mov eax, esi
    ret
endproc
`
	prog := asm.MustParse(src)
	lat := lattice.Default()

	// Polymorphic: mk_a's object has only the σ32@0 field.
	poly := must(oneShot(bg, prog, lat, DefaultOptions()))
	skA, ok := poly.Procs["mk_a"].OutSketch()
	if !ok {
		t.Fatal("mk_a has no out")
	}
	if skA.Accepts(label.Word{label.Store(), label.Field(32, 4)}) {
		t.Errorf("polymorphic mk_a absorbed mk_b's field:\n%s", skA)
	}

	// Monomorphic ablation: all callers share one xalloc.out_eax
	// variable, so solving the whole-program constraint set merges the
	// allocations — the shared return class accumulates BOTH callers'
	// fields (exactly the over-merging §2.2 warns about).
	opts := DefaultOptions()
	opts.Absint = absint.Options{MonomorphicCalls: true}
	mono := must(oneShot(bg, prog, lat, opts))
	global := constraints.NewSet()
	for p := range mono.Procs {
		global.InsertAll(generated(mono, p, opts.Absint))
	}
	shapes := sketch.NewBuilder(global, lat)
	skOut := shapes.SketchFor("xalloc", -1)
	outSk, ok := skOut.Descend(label.Word{label.Out("eax")})
	if !ok {
		t.Fatalf("xalloc has no out in the global quotient:\n%s", skOut)
	}
	has0 := outSk.Accepts(label.Word{label.Store(), label.Field(32, 0)})
	has4 := outSk.Accepts(label.Word{label.Store(), label.Field(32, 4)})
	if !has0 || !has4 {
		t.Errorf("monomorphic solving should merge both callers' fields (σ0=%v σ4=%v):\n%s",
			has0, has4, outSk)
	}

	// Under polymorphism the same global exercise keeps the callsite
	// instances apart: xalloc's own (untagged) return stays free of the
	// callers' fields.
	polyGlobal := constraints.NewSet()
	for p := range poly.Procs {
		polyGlobal.InsertAll(generated(poly, p, absint.Options{}))
	}
	shapes2 := sketch.NewBuilder(polyGlobal, lat)
	skOut2 := shapes2.SketchFor("xalloc", -1)
	if outSk2, ok := skOut2.Descend(label.Word{label.Out("eax")}); ok {
		if outSk2.Accepts(label.Word{label.Store(), label.Field(32, 4)}) {
			t.Errorf("polymorphic instances leaked into xalloc's own scheme:\n%s", outSk2)
		}
	}
}

// TestAblationConstantSuppression: without §2.1 handling, the zero
// pseudo-variable ties the NULL arguments to each other.
func TestAblationConstantSuppression(t *testing.T) {
	src := `
proc callee
    mov eax, [esp+4]
    mov ecx, [esp+8]
    mov edx, [ecx]
    ret
endproc
proc caller
    xor eax, eax
    push eax
    push eax
    call callee
    add esp, 8
    ret
endproc
`
	prog := asm.MustParse(src)
	lat := lattice.Default()

	// Paper-faithful: the int parameter stays pointer-free.
	res := must(oneShot(bg, prog, lat, DefaultOptions()))
	sk, ok := res.Procs["callee"].InSketch("stack0")
	if !ok {
		t.Fatal("no param sketch")
	}
	if sk.Accepts(label.Word{label.Load()}) {
		t.Errorf("suppressed constants must not link the parameters:\n%s", sk)
	}

	// Ablated: both actuals flow through ;caller;zero; the unification
	// baseline (which symmetrizes) then gives param0 the pointer
	// capability of param1. Under subtyping the flow is still
	// directional, so we check at the constraint level instead: the
	// zero variable now constrains both formals.
	opts := DefaultOptions()
	opts.Absint = absint.Options{NoConstantSuppression: true}
	res2 := must(oneShot(bg, prog, lat, opts))
	text := generated(res2, "caller", opts.Absint).String()
	if !contains(text, ";caller;zero") {
		t.Errorf("ablation should emit the shared zero variable:\n%s", text)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestAblationNoPointerRule is covered structurally: S-POINTER is what
// makes the Figure 4 programs typecheck (TestFigure4 in pgraph); here
// we confirm the end-to-end pipeline preserves the value flow through
// a write-then-read pointer round trip.
func TestPointerRoundTripEndToEnd(t *testing.T) {
	src := `
proc f
    mov ecx, [esp+4]     ; q
    mov edx, [esp+8]     ; p, aliased supertype of q
    mov eax, [esp+12]    ; x
    mov [edx], eax       ; *p = x
    mov eax, [ecx]       ; y = *q  (must see x's type)
    push eax
    call close
    add esp, 4
    ret
endproc
proc g
    push 5
    call malloc
    add esp, 4
    push eax
    push eax             ; p and q alias
    call rand
    push eax
    call f
    add esp, 12
    ret
endproc
`
	prog := asm.MustParse(src)
	lat := lattice.Default()
	res := must(oneShot(bg, prog, lat, DefaultOptions()))
	// x (param 2 of f) must pick up close's int ∧ #FileDescriptor
	// upper bound through the store/load round trip... only when p and
	// q are related. Within f they are not related (sound!), so check
	// the direct path: the loaded value flows to close.
	sk, ok := res.Procs["f"].InSketch("stack0")
	if !ok {
		t.Fatal("no sketch for q")
	}
	handle, ok2 := sk.StateAt(label.Word{label.Load(), label.Field(32, 0)})
	if !ok2 {
		t.Fatalf("q is not loadable:\n%s", sk)
	}
	intE := lat.MustElem("int")
	if !lat.Leq(sk.States[handle].Upper, intE) {
		t.Errorf("pointee upper bound should be ≤ int, got %s", lat.Name(sk.States[handle].Upper))
	}
}
