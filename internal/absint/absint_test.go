package absint

import (
	"strings"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/summaries"
)

func generate(t *testing.T, src string, opts Options) map[string]*Result {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	infos := cfg.AnalyzeProgram(prog)
	lat := lattice.Default()
	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}
	out := map[string]*Result{}
	for _, p := range prog.Procs {
		out[p.Name] = Generate(infos[p.Name], infos, nil, summaries.Default(), isConst, opts)
	}
	return out
}

func hasConstraintLike(r *Result, substr string) bool {
	return strings.Contains(r.Constraints.String(), substr)
}

// TestLoadStoreConstraints: loads and stores produce .load.σN@k /
// .store.σN@k constraints with the access width (§A.3).
func TestLoadStoreConstraints(t *testing.T) {
	rs := generate(t, `
proc f
    mov ecx, [esp+4]
    mov eax, [ecx+8]
    movb edx, [ecx+1]
    mov [ecx+12], eax
    ret
endproc
`, Options{})
	r := rs["f"]
	for _, want := range []string{
		".load.σ32@8", ".load.σ8@1", ".store.σ32@12",
		"f.in_stack0 <=",
	} {
		if !hasConstraintLike(r, want) {
			t.Errorf("missing %q in:\n%s", want, r.Constraints)
		}
	}
}

// TestSemiSyntacticConstants (§2.1): xor eax,eax then two pushes as
// NULL arguments must not produce any constraint tying the two
// parameters together.
func TestSemiSyntacticConstants(t *testing.T) {
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
	rs := generate(t, src, Options{})
	r := rs["caller"]
	// No constraint should mention callee's inputs at all: the zero
	// actuals are suppressed.
	if strings.Contains(r.Constraints.String(), "in_stack0") ||
		strings.Contains(r.Constraints.String(), "in_stack4") {
		t.Errorf("zero arguments leaked constraints:\n%s", r.Constraints)
	}
	// With suppression disabled (ablation), the zero flows through the
	// shared pseudo variable — the §2.1 hazard made visible.
	rs = generate(t, src, Options{NoConstantSuppression: true})
	r = rs["caller"]
	if !strings.Contains(r.Constraints.String(), ";caller;zero") {
		t.Errorf("ablation should route zeros through the pseudo var:\n%s", r.Constraints)
	}
}

// TestFlagOnlyOps (§A.5.2): test/cmp generate nothing.
func TestFlagOnlyOps(t *testing.T) {
	rs := generate(t, `
proc f
    mov eax, [esp+4]
    test eax, eax
    cmp eax, 4
    ret
endproc
`, Options{})
	text := rs["f"].Constraints.String()
	if strings.Contains(text, "int") {
		t.Errorf("flag-only ops should not type operands:\n%s", text)
	}
}

// TestBitStealing (§A.5.2): and r,-4 / or r,1 act as value copies.
func TestBitStealing(t *testing.T) {
	rs := generate(t, `
proc f
    mov ecx, [esp+4]
    and ecx, -4
    mov eax, [ecx]
    ret
endproc
`, Options{})
	// The load must still be attributed to the parameter (through the
	// alias), so f.in_stack0's class must reach a .load.
	text := rs["f"].Constraints.String()
	if !strings.Contains(text, ".load.σ32@0") {
		t.Errorf("bit-stealing mask broke the pointer flow:\n%s", text)
	}
	if strings.Contains(text, "<= int") {
		t.Errorf("mask must not force an integer type:\n%s", text)
	}
}

// TestAdditiveConstraints: reg+reg emits Add (§A.6).
func TestAdditiveConstraints(t *testing.T) {
	rs := generate(t, `
proc f
    mov eax, [esp+4]
    mov ecx, [esp+8]
    add eax, ecx
    sub eax, ecx
    ret
endproc
`, Options{})
	text := rs["f"].Constraints.String()
	if !strings.Contains(text, "Add(") || !strings.Contains(text, "Sub(") {
		t.Errorf("missing additive constraints:\n%s", text)
	}
}

// TestPointerOffsetTracking (§A.2): add reg, imm keeps the base type
// variable, folding the offset into the field access.
func TestPointerOffsetTracking(t *testing.T) {
	rs := generate(t, `
proc f
    mov ecx, [esp+4]
    add ecx, 8
    mov eax, [ecx+4]
    ret
endproc
`, Options{})
	text := rs["f"].Constraints.String()
	if !strings.Contains(text, ".load.σ32@12") {
		t.Errorf("offset translation lost (want σ32@12):\n%s", text)
	}
}

// TestCallsiteTags: two calls to malloc get distinct instances
// (let-polymorphism, Example A.4); monomorphic mode shares them.
func TestCallsiteTags(t *testing.T) {
	src := `
proc f
    push 8
    call malloc
    add esp, 4
    push 16
    call malloc
    add esp, 4
    ret
endproc
`
	rs := generate(t, src, Options{})
	var roots []string
	for _, c := range rs["f"].Calls {
		roots = append(roots, string(c.Root))
	}
	if len(roots) != 2 || roots[0] == roots[1] {
		t.Errorf("malloc callsites should be distinct: %v", roots)
	}
	rs = generate(t, src, Options{MonomorphicCalls: true})
	roots = roots[:0]
	for _, c := range rs["f"].Calls {
		roots = append(roots, string(c.Root))
	}
	if roots[0] != roots[1] {
		t.Errorf("monomorphic mode should share the instance: %v", roots)
	}
}

// TestRegionVariables (§A.3): address-taken locals get a region
// variable whose loads/stores model the frame struct.
func TestRegionVariables(t *testing.T) {
	rs := generate(t, `
proc f
    sub esp, 8
    mov eax, [esp+12]
    mov [esp], eax
    lea ecx, [esp]
    push ecx
    call g
    add esp, 4
    add esp, 8
    ret
endproc
proc g
    mov ecx, [esp+4]
    mov eax, [ecx]
    ret
endproc
`, Options{})
	text := rs["f"].Constraints.String()
	if !strings.Contains(text, "rgn") {
		t.Errorf("no region variable for the address-taken frame slot:\n%s", text)
	}
	if !strings.Contains(text, ".store.σ32@0") {
		t.Errorf("direct writes should route through the region store:\n%s", text)
	}
}

// TestCoverage: uncovered instructions generate nothing (the REWARDS
// baseline's restriction).
func TestCoverage(t *testing.T) {
	rs := generate(t, `
proc f
    mov ecx, [esp+4]
    mov eax, [ecx+4]
    ret
endproc
`, Options{Covered: func(proc string, idx int) bool { return false }})
	if got := len(rs["f"].Constraints.Subtypes()); got > 1 {
		// Only the formal binding may remain.
		t.Errorf("uncovered body generated %d constraints:\n%s", got, rs["f"].Constraints)
	}
}

// TestSCCSlotScopesMintedNames: with an SCC slot, every variable
// Generate mints is named by the slot and the instruction alone. Two
// procedures at different slots share no minted base (an SCC's members
// are solved as one set), and a procedure's minted bases do not depend
// on its name (so they recur across procedures and programs).
func TestSCCSlotScopesMintedNames(t *testing.T) {
	body := `
    sub esp, 8
    mov eax, [esp+12]
    mov ecx, [eax]
    mov [esp], ecx
    lea edx, [esp]
    push edx
    call h
    add esp, 4
    push 8
    call malloc
    add esp, 12
    ret
endproc
`
	prog := asm.MustParse("proc f" + body + "proc g" + body + `
proc h
    mov eax, [esp+4]
    ret
endproc
`)
	infos := cfg.AnalyzeProgram(prog)
	lat := lattice.Default()
	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}
	h := &constraints.Scheme{
		Root:        "h",
		Constraints: constraints.MustParseSet("h.in_stack0 <= τ1\nτ1 <= h.out_eax"),
		Existential: []constraints.Var{"τ1"},
	}
	schemes := func(name string) *constraints.Scheme {
		if name == "h" {
			return h
		}
		return nil
	}
	minted := func(p string, slot int) map[constraints.Var]bool {
		r := Generate(infos[p], infos, schemes, summaries.Default(), isConst, Options{SCCSlot: slot})
		out := map[constraints.Var]bool{}
		for _, v := range r.Constraints.Vars() {
			if v != constraints.Var(p) && !isConst(v) {
				out[v] = true
			}
		}
		return out
	}
	f1, g2, g1 := minted("f", 1), minted("g", 2), minted("g", 1)
	for _, want := range []constraints.Var{";1;rgn8", ";1;@6", ";1;@6!τ1", ";1;@9"} {
		if !f1[want] {
			t.Errorf("f at slot 1 mints no %s: %v", want, f1)
		}
	}
	for v := range f1 {
		if g2[v] {
			t.Errorf("procedures at slots 1 and 2 share the minted base %s", v)
		}
		if !g1[v] {
			t.Errorf("f at slot 1 mints %s, its twin g at slot 1 does not", v)
		}
	}
	if len(g1) != len(f1) {
		t.Errorf("twins at slot 1 mint %d and %d bases", len(f1), len(g1))
	}
	for v := range g2 {
		if !strings.HasPrefix(string(v), ";2;") {
			t.Errorf("g at slot 2 mints %s outside its scope", v)
		}
	}
}
