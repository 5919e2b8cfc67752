package bodyfp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"retypd/internal/asm"
)

// fpOf analyzes the named procedure of src and fingerprints it, with
// every call target bound to its own name.
func fpOf(t *testing.T, src, proc string, conf Config) *FP {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, ok := prog.ProcIndex[proc]
	if !ok {
		t.Fatalf("no procedure %q", proc)
	}
	fp := Compute(p, conf, func(target string) (CalleeID, bool) {
		return CalleeID{Kind: CalleeNamed, ID: uint64(len(target)*1000 + int(target[0]))}, true
	})
	if fp == nil {
		t.Fatalf("Compute(%s) returned nil", proc)
	}
	return fp
}

func wrap(name, body string) string {
	return "proc " + name + "\n" + body + "\nendproc\n\nproc callee\nret\nendproc\n\nproc callee2\nret\nendproc\n"
}

// TestRenameInvariance: the fingerprint is invariant under renaming of
// scratch registers within a symmetry class and under label renaming,
// and the procedure's own name never matters.
func TestRenameInvariance(t *testing.T) {
	base := `
    mov ebx, [ebp+8]
top:
    add ebx, 1
    cmp ebx, 10
    jl top
    mov eax, ebx
    ret`
	cases := []struct {
		name string
		body string
	}{
		{"esi-for-ebx", strings.ReplaceAll(base, "ebx", "esi")},
		{"edi-for-ebx", strings.ReplaceAll(base, "ebx", "edi")},
		{"label-renamed", strings.ReplaceAll(base, "top", "loop_x")},
		{"jcc-mnemonic", strings.ReplaceAll(base, "jl top", "jnz top")},
	}
	want := fpOf(t, wrap("f", base), "f", Config{})
	other := fpOf(t, wrap("other_name", base), "other_name", Config{})
	if !want.EquivalentTo(other) {
		t.Error("fingerprint depends on the procedure's own name")
	}
	for _, tc := range cases {
		got := fpOf(t, wrap("f", tc.body), "f", Config{})
		if got.Hash() != want.Hash() || !got.EquivalentTo(want) {
			t.Errorf("%s: fingerprint not invariant", tc.name)
		}
	}
	// The register-renamed variants must report differing register
	// assignments (the solver's CFG-clone anchoring relies on it).
	got := fpOf(t, wrap("f", strings.ReplaceAll(base, "ebx", "esi")), "f", Config{})
	if got.SameRegisters(want) {
		t.Error("SameRegisters true across an ebx→esi renaming")
	}
	same := fpOf(t, wrap("g", base), "g", Config{})
	if !same.SameRegisters(want) {
		t.Error("SameRegisters false for identical bodies")
	}
}

// TestEcxEdxClass: ecx and edx are mutually renameable (both call-
// clobbered), but not interchangeable with the callee-saved class.
func TestEcxEdxClass(t *testing.T) {
	body := `
    mov ecx, [ebp+8]
    add ecx, 2
    mov eax, ecx
    ret`
	a := fpOf(t, wrap("f", body), "f", Config{})
	b := fpOf(t, wrap("f", strings.ReplaceAll(body, "ecx", "edx")), "f", Config{})
	c := fpOf(t, wrap("f", strings.ReplaceAll(body, "ecx", "ebx")), "f", Config{})
	if !a.EquivalentTo(b) {
		t.Error("ecx→edx renaming changed the fingerprint")
	}
	if a.EquivalentTo(c) {
		t.Error("ecx→ebx renaming must NOT match: the classes differ at calls")
	}
}

// TestDistinguishes: semantically different bodies must fingerprint
// differently.
func TestDistinguishes(t *testing.T) {
	base := `
    mov eax, [ebp+8]
    add eax, 1
    ret`
	want := fpOf(t, wrap("f", base), "f", Config{})
	cases := []struct {
		name string
		body string
		conf Config
	}{
		{"different-immediate", strings.ReplaceAll(base, "add eax, 1", "add eax, 2"), Config{}},
		{"different-slot", strings.ReplaceAll(base, "[ebp+8]", "[ebp+12]"), Config{}},
		{"different-op", strings.ReplaceAll(base, "add", "sub"), Config{}},
		{"extra-inst", base + "\nnop", Config{}},
		{"options", base, Config{MonomorphicCalls: true}},
		{"lattice", base, Config{LatticeSig: "99"}},
	}
	for _, tc := range cases {
		got := fpOf(t, wrap("f", tc.body), "f", tc.conf)
		if got.EquivalentTo(want) {
			t.Errorf("%s: fingerprints collide", tc.name)
		}
	}
	// A register that is a formal parameter is pinned: renaming it IS a
	// semantic change (the in_<reg> interface label changes).
	regParam := `
    add ebx, 1
    mov eax, ebx
    ret`
	p1 := fpOf(t, wrap("f", regParam), "f", Config{})
	p2 := fpOf(t, wrap("f", strings.ReplaceAll(regParam, "ebx", "esi")), "f", Config{})
	if p1.EquivalentTo(p2) {
		t.Error("formal-register renaming must change the fingerprint")
	}
}

// TestCalleeBindings: identical bodies calling targets with different
// identities must not match; equal identities must.
func TestCalleeBindings(t *testing.T) {
	src := `
proc f
    push 1
    call callee
    add esp, 4
    ret
endproc
proc callee
    ret
endproc
`
	prog := asm.MustParse(src)
	with := func(id CalleeID) *FP {
		fp := Compute(prog.ProcIndex["f"], Config{}, func(string) (CalleeID, bool) { return id, true })
		if fp == nil {
			t.Fatal("Compute returned nil")
		}
		return fp
	}
	a := with(CalleeID{Kind: CalleeClass, ID: 1})
	b := with(CalleeID{Kind: CalleeClass, ID: 1})
	c := with(CalleeID{Kind: CalleeClass, ID: 2})
	d := with(CalleeID{Kind: CalleeNamed, ID: 1})
	if !a.EquivalentTo(b) {
		t.Error("equal callee bindings must fingerprint equal")
	}
	if a.EquivalentTo(c) {
		t.Error("different callee classes must fingerprint different")
	}
	if a.EquivalentTo(d) {
		t.Error("class and named identities must never collide")
	}
	if len(a.Calls()) != 1 || a.Calls()[0].Target != "callee" {
		t.Errorf("Calls() = %+v", a.Calls())
	}

	// Ineligible callee poisons the body.
	if fp := Compute(prog.ProcIndex["f"], Config{}, func(string) (CalleeID, bool) { return CalleeID{}, false }); fp != nil {
		t.Error("Compute must return nil when a callee identity is unavailable")
	}
}

// TestRepetitionPattern: one callee called twice vs two class-equal
// callees called once each — the monomorphic-linking hazard — must
// fingerprint differently even under equal per-site identities.
func TestRepetitionPattern(t *testing.T) {
	twice := `
proc f
    call a
    call a
    ret
endproc
proc a
    ret
endproc
proc b
    ret
endproc
`
	split := strings.Replace(twice, "call a\n    call a", "call a\n    call b", 1)
	sameClass := func(string) (CalleeID, bool) { return CalleeID{Kind: CalleeClass, ID: 7}, true }
	fpTwice := Compute(asm.MustParse(twice).ProcIndex["f"], Config{}, sameClass)
	fpSplit := Compute(asm.MustParse(split).ProcIndex["f"], Config{}, sameClass)
	if fpTwice == nil || fpSplit == nil {
		t.Fatal("Compute returned nil")
	}
	if fpTwice.EquivalentTo(fpSplit) {
		t.Error("name-repetition patterns must be distinguished")
	}
}

// TestPropertyRandomBodies: random straight-line bodies — a body is
// always equivalent to its scratch-register- and label-renamed twin,
// and (with overwhelming probability) inequivalent to a body with any
// instruction altered.
func TestPropertyRandomBodies(t *testing.T) {
	r := rand.New(rand.NewSource(20260729))
	regs := []string{"ebx", "esi", "edi"}
	for trial := 0; trial < 40; trial++ {
		// Generate a random body over ebx/esi/edi. Every register is
		// defined before any read: a register read live-in at entry
		// becomes a formal parameter, which is pinned (renaming it
		// would change the in_<reg> interface — a different procedure).
		n := 3 + r.Intn(8)
		defined := map[string]bool{}
		var lines []string
		define := func(reg string) {
			if !defined[reg] {
				lines = append(lines, fmt.Sprintf("mov %s, %d", reg, r.Intn(9)))
				defined[reg] = true
			}
		}
		for i := 0; i < n; i++ {
			reg := regs[r.Intn(3)]
			switch r.Intn(4) {
			case 0:
				lines = append(lines, fmt.Sprintf("mov %s, [esp+%d]", reg, 4+4*r.Intn(4)))
				defined[reg] = true
			case 1:
				define(reg)
				lines = append(lines, fmt.Sprintf("add %s, %d", reg, r.Intn(16)))
			case 2:
				src := regs[r.Intn(3)]
				define(src)
				lines = append(lines, fmt.Sprintf("mov %s, %s", reg, src))
				defined[reg] = true
			case 3:
				define(reg)
				lines = append(lines, fmt.Sprintf("mov [esp-%d], %s", 4+4*r.Intn(3), reg))
			}
		}
		lines = append(lines, "mov eax, 0", "ret")
		body := strings.Join(lines, "\n")

		// A consistent permutation of the scratch class.
		perm := map[string]string{"ebx": "esi", "esi": "edi", "edi": "ebx"}
		renamed := body
		renamed = strings.ReplaceAll(renamed, "ebx", "§0")
		renamed = strings.ReplaceAll(renamed, "esi", "§1")
		renamed = strings.ReplaceAll(renamed, "edi", "§2")
		renamed = strings.ReplaceAll(renamed, "§0", perm["ebx"])
		renamed = strings.ReplaceAll(renamed, "§1", perm["esi"])
		renamed = strings.ReplaceAll(renamed, "§2", perm["edi"])

		a := fpOf(t, wrap("f", body), "f", Config{})
		b := fpOf(t, wrap("g", renamed), "g", Config{})
		if !a.EquivalentTo(b) {
			t.Fatalf("trial %d: register-permuted body not equivalent:\n%s\n--- vs ---\n%s", trial, body, renamed)
		}

		// Mutating any one instruction must break equivalence.
		mutIdx := r.Intn(len(lines) - 2) // keep the trailing mov/ret
		mutLines := append([]string(nil), lines...)
		mutLines[mutIdx] = "xor eax, eax"
		mutated := fpOf(t, wrap("f", strings.Join(mutLines, "\n")), "f", Config{})
		if a.EquivalentTo(mutated) {
			t.Fatalf("trial %d: mutated body still equivalent (line %d → xor)", trial, mutIdx)
		}
	}
}
