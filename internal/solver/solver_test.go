package solver

import (
	"context"
	"strings"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
)

// bg is the context of test runs that are never cancelled.
var bg = context.Background()

// must returns res, panicking on err: the runs it wraps are expected to
// succeed, and a panic keeps the failing run's stack.
func must(res *Result, err error) *Result {
	if err != nil {
		panic(err)
	}
	return res
}

// oneShot infers prog on a fresh engine with session recording off:
// every memo starts empty and nothing outlives the run.
func oneShot(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, opts Options) (*Result, error) {
	eng := NewEngine()
	eng.DisableSessionRecording()
	return eng.InferContext(ctx, prog, lat, nil, opts)
}

// figure2Asm is the close_last listing of Figure 2 (gcc 4.5.4, -m32
// -O2), transcribed into the substrate's syntax.
const figure2Asm = `
proc close_last
    push ebp
    mov ebp, esp
    sub esp, 8
    mov edx, [ebp+8]
    jmp L2
L1:
    mov edx, eax
L2:
    mov eax, [edx]
    test eax, eax
    jnz L1
    mov eax, [edx+4]
    mov [ebp+8], eax
    leave
    jmp close
endproc
`

func inferFig2(t *testing.T) *Result {
	t.Helper()
	prog, err := asm.Parse(figure2Asm)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return must(oneShot(bg, prog, lattice.Default(), DefaultOptions()))
}

func proves(t *testing.T, cs *constraints.Set, lat *lattice.Lattice, l, r string) bool {
	t.Helper()
	g := pgraph.Build(cs, lat)
	ld, err := constraints.ParseDTV(l)
	if err != nil {
		t.Fatalf("ParseDTV(%q): %v", l, err)
	}
	rd, err := constraints.ParseDTV(r)
	if err != nil {
		t.Fatalf("ParseDTV(%q): %v", r, err)
	}
	return g.Proves(ld, rd)
}

// TestFigure2Scheme reproduces the headline example: the inferred type
// scheme for close_last must be equivalent to
//
//	∀F. (∃τ. F.in_stack0 ⊑ τ ∧ τ.load.σ32@0 ⊑ τ ∧
//	          τ.load.σ32@4 ⊑ int ∧ #FileDescriptor ∧
//	          int ∨ #SuccessZ ⊑ F.out_eax) ⇒ F
func TestFigure2Scheme(t *testing.T) {
	res := inferFig2(t)
	pr := res.Procs["close_last"]
	if pr == nil {
		t.Fatal("no result for close_last")
	}
	cs := pr.Scheme.Constraints
	lat := res.Lat

	checks := [][2]string{
		// Direct handle field.
		{"close_last.in_stack0.load.σ32@4", "int"},
		{"close_last.in_stack0.load.σ32@4", "#FileDescriptor"},
		// Through one and two unrollings of the recursive next field.
		{"close_last.in_stack0.load.σ32@0.load.σ32@4", "int"},
		{"close_last.in_stack0.load.σ32@0.load.σ32@0.load.σ32@4", "#FileDescriptor"},
		// Return value lower bounds.
		{"int", "close_last.out_eax"},
		{"#SuccessZ", "close_last.out_eax"},
	}
	for _, c := range checks {
		if !proves(t, cs, lat, c[0], c[1]) {
			t.Errorf("scheme does not entail %s ⊑ %s\nscheme: %s", c[0], c[1], pr.Scheme)
		}
	}
	// The scheme must not leak internal variables.
	for _, c := range cs.Subtypes() {
		for _, d := range []constraints.DTV{c.L, c.R} {
			name := string(d.Base())
			if strings.Contains(name, "!") || strings.Contains(name, "@") {
				t.Errorf("internal variable %q leaked into scheme: %s", name, c)
			}
		}
	}
}

// TestFigure2Sketch checks the solved sketch (Figure 5): the parameter
// is a readable pointer to a struct whose field at offset 0 is
// recursive and whose field at offset 4 is bounded above by
// int ∧ #FileDescriptor; the output's lower bound is int ∨ #SuccessZ.
func TestFigure2Sketch(t *testing.T) {
	res := inferFig2(t)
	pr := res.Procs["close_last"]
	lat := res.Lat

	sk := pr.Sketch
	inW := label.Word{label.In("stack0")}
	if !sk.Accepts(inW) {
		t.Fatalf("sketch lacks in_stack0:\n%s", sk)
	}
	// The parameter is a readable pointer: in.load exists.
	ptr := inW.Append(label.Load())
	if !sk.Accepts(ptr) {
		t.Fatalf("parameter is not a readable pointer:\n%s", sk)
	}
	// Recursive next field: arbitrarily deep words are accepted.
	deep := inW
	for i := 0; i < 5; i++ {
		deep = deep.Append(label.Load()).Append(label.Field(32, 0))
	}
	if !sk.Accepts(deep) {
		t.Errorf("sketch is not recursive through load.σ32@0:\n%s", sk)
	}

	// Handle field bounds: upper = int ∧ #FileDescriptor.
	handle, ok := sk.StateAt(inW.Append(label.Load()).Append(label.Field(32, 4)))
	if !ok {
		t.Fatalf("sketch lacks the σ32@4 handle field:\n%s", sk)
	}
	intE := lat.MustElem("int")
	fdE := lat.MustElem("#FileDescriptor")
	upper := sk.States[handle].Upper
	if !lat.Leq(upper, intE) || !lat.Leq(upper, fdE) {
		t.Errorf("handle field upper bound = %s, want ≤ int and ≤ #FileDescriptor", lat.Name(upper))
	}

	// Output lower bound joins int and #SuccessZ.
	outSt, ok := sk.StateAt(label.Word{label.Out("eax")})
	if !ok {
		t.Fatalf("sketch lacks out_eax:\n%s", sk)
	}
	lower := sk.States[outSt].Lower
	if !lat.Leq(intE, lower) || !lat.Leq(lat.MustElem("#SuccessZ"), lower) {
		t.Errorf("out lower bound = %s, want ≥ int ∨ #SuccessZ", lat.Name(lower))
	}
}

// TestFigure2ConstParameter: the parameter pointer is loaded from but
// never stored through, which is what drives the const-recovery policy
// of §6.4 (Example 4.1): VAR p.in.load holds, VAR p.in.store must not.
func TestFigure2ConstParameter(t *testing.T) {
	res := inferFig2(t)
	pr := res.Procs["close_last"]
	sk := pr.Sketch
	inW := label.Word{label.In("stack0")}
	if !sk.Accepts(inW.Append(label.Load())) {
		t.Error("expected in_stack0.load capability")
	}
	// Note: shape inference conflates load/store targets but only adds
	// labels that occur; the store capability must be absent.
	if sk.Accepts(inW.Append(label.Store())) {
		t.Error("unexpected in_stack0.store capability — const recovery would fail")
	}
}

// TestFormalsAndOut checks the recovered interface of close_last.
func TestFormalsAndOut(t *testing.T) {
	res := inferFig2(t)
	pi := res.Infos["close_last"]
	if len(pi.FormalIns) != 1 || pi.FormalIns[0].ParamName() != "stack0" {
		t.Errorf("formals = %v, want [stack0]", pi.FormalIns)
	}
	if !pi.HasOut {
		t.Error("close_last must have an output (via the tail call)")
	}
}

// TestPolymorphicMalloc: two wrappers calling malloc must NOT have
// their return types linked (let-polymorphism at callsites, §2.2): the
// int-list allocator and the string-pair allocator stay independent.
func TestPolymorphicMalloc(t *testing.T) {
	src := `
proc alloc_a
    push 8
    call malloc
    add esp, 4
    mov [eax], eax      ; a->next = self (recursive struct a)
    ret
endproc

proc alloc_b
    push 12
    call malloc
    add esp, 4
    mov ecx, [eax+8]    ; read 3rd field
    ret
endproc

proc use_both
    call alloc_a
    mov ebx, eax
    call alloc_b
    mov ecx, [ebx]      ; deref a's field
    ret
endproc
`
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := must(oneShot(bg, prog, lattice.Default(), DefaultOptions()))

	aOut := res.Procs["alloc_a"]
	if aOut == nil {
		t.Fatal("missing alloc_a")
	}
	// alloc_a's return must be a writable pointer.
	skA, ok := aOut.OutSketch()
	if !ok {
		t.Fatalf("alloc_a has no out sketch:\n%s", aOut.Sketch)
	}
	if !skA.Accepts(label.Word{label.Store()}) {
		t.Errorf("alloc_a out is not a writable pointer:\n%s", skA)
	}
	// alloc_b's return must have the σ32@8 field but NOT alloc_a's
	// recursive structure (no cross-callsite pollution).
	bOut := res.Procs["alloc_b"]
	skB, ok := bOut.OutSketch()
	if !ok {
		t.Fatal("alloc_b has no out sketch")
	}
	if !skB.Accepts(label.Word{label.Load(), label.Field(32, 8)}) {
		t.Errorf("alloc_b out lacks the σ32@8 field:\n%s", skB)
	}
	if skB.Accepts(label.Word{label.Store(), label.Field(32, 0)}) &&
		skA.Equal(skB) {
		t.Errorf("malloc wrappers were unified — polymorphism lost")
	}
}

// TestSchemeInstantiationForgetsFields (§3.4): passing a more capable
// struct to a function that uses only one field must typecheck without
// forcing the extra fields onto the function's formal.
func TestSchemeInstantiationForgetsFields(t *testing.T) {
	src := `
proc get0
    mov ecx, [esp+4]
    mov eax, [ecx]
    ret
endproc

proc caller
    mov ecx, [esp+4]    ; rich struct pointer
    mov edx, [ecx+4]    ; caller uses field 4 itself
    push ecx
    call get0           ; and passes the struct to get0
    add esp, 4
    ret
endproc
`
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := must(oneShot(bg, prog, lattice.Default(), DefaultOptions()))

	// get0's own (unspecialized) formal sketch must not have the σ32@4
	// field: instantiation, not subtyping, absorbs the extra
	// capability.
	g0 := res.Procs["get0"]
	formal, ok := g0.Sketch.Descend(label.Word{label.In("stack0")})
	if !ok {
		t.Fatalf("get0 formal missing:\n%s", g0.Sketch)
	}
	if formal.Accepts(label.Word{label.Load(), label.Field(32, 4)}) {
		t.Errorf("get0's formal absorbed the caller's extra field — "+
			"non-structural subtyping leaked through a callsite:\n%s", formal)
	}
	// The specialized formal (F.3) MAY pick the field up; that is the
	// point of specialization.
	if sp := g0.SpecializedIns["stack0"]; sp != nil {
		if !sp.Accepts(label.Word{label.Load(), label.Field(32, 0)}) {
			t.Errorf("specialized formal lost its own field:\n%s", sp)
		}
	}
}
