package absint

import (
	"testing"

	"retypd/internal/constraints"
)

func TestRenamerForms(t *testing.T) {
	procs := map[string]bool{"rep": true, "mem": true, "leaf_a": true, "leaf_b": true, "other_leaf": true}
	ren := NewRenamer("rep", "mem", []CallRename{
		{Inst: 5, From: "leaf_a", To: "leaf_b"},
		{Inst: 9, From: "ext", To: "ext"},
	}, func(s string) bool { return procs[s] })
	if !ren.Valid() {
		t.Fatal("renamer invalid")
	}
	cases := []struct {
		in, want string
	}{
		{"rep", "mem"},                       // the procedure variable
		{"rep!eax@3", "mem!eax@3"},           // defVar (register)
		{"rep!s-8@12", "mem!s-8@12"},         // defVar (slot)
		{"rep!frm!stack0", "mem!frm!stack0"}, // formal entry
		{"rep!rgn8", "mem!rgn8"},             // region
		{"rep!u4!stbase", "mem!u4!stbase"},   // merge intermediate
		{"rep!zero", "mem!zero"},             // zero pseudo-variable
		{"leaf_a@rep!5", "leaf_b@mem!5"},     // tagged callee root, renamed target
		{"τ3@rep!5", "τ3@mem!5"},             // tagged callee existential
		{"ext@rep!9", "ext@mem!9"},           // tagged external root
		{"leaf_a", "leaf_b"},                 // bare callee (monomorphic linking)
		{"int", "int"},                       // lattice constant
		{"other_proc", "other_proc"},         // foreign non-procedure name
		{"repx", "repx"},                     // name sharing a prefix with rep
		{"τ4", "τ4"},                         // bare existential
	}
	for _, tc := range cases {
		got, ok := ren.Rename(constraints.Var(tc.in))
		if !ok || string(got) != tc.want {
			t.Errorf("Rename(%q) = %q,%v; want %q,true", tc.in, got, ok, tc.want)
		}
	}

	// Unclassifiable forms must fail, not guess. That includes program
	// procedures appearing where only the callsite's own callee could:
	// a variable leaked through a callee's simplified scheme, whose
	// member-side name the callsite correspondence cannot supply.
	for _, bad := range []string{
		"x@other!3",        // tag of a different procedure
		"x@rep!notanumber", // malformed tag index
		"other_leaf@rep!5", // leaked program proc instantiated at a foreign callsite
		"leaf_a@rep!7",     // the right callee but at a site that does not call it
		"other_leaf",       // bare leaked program proc the body never calls
	} {
		if _, ok := ren.Rename(constraints.Var(bad)); ok {
			t.Errorf("Rename(%q) succeeded; want failure", bad)
		}
	}
}

func TestRenamerInconsistentCalls(t *testing.T) {
	ren := NewRenamer("a", "b", []CallRename{
		{Inst: 1, From: "c", To: "d"},
		{Inst: 2, From: "c", To: "e"}, // same source, two targets
	}, nil)
	if ren.Valid() {
		t.Error("inconsistent callsite correspondence accepted")
	}
	if _, ok := ren.Apply(constraints.NewSet()); ok {
		t.Error("Apply succeeded on an invalid renamer")
	}
}

func TestRenamerApply(t *testing.T) {
	cs := constraints.MustParseSet(`
		rep.in_stack0 <= rep!frm!stack0
		leaf_a@rep!5.out_eax <= rep!eax@6
		Add(rep!eax@6, rep!ebx@2; rep!eax@7)
		int <= rep.out_eax
	`)
	ren := NewRenamer("rep", "mem", []CallRename{{Inst: 5, From: "leaf_a", To: "leaf_b"}},
		func(s string) bool { return s == "rep" || s == "mem" || s == "leaf_a" || s == "leaf_b" })
	out, ok := ren.Apply(cs)
	if !ok {
		t.Fatal("Apply failed")
	}
	want := constraints.MustParseSet(`
		mem.in_stack0 <= mem!frm!stack0
		leaf_b@mem!5.out_eax <= mem!eax@6
		Add(mem!eax@6, mem!ebx@2; mem!eax@7)
		int <= mem.out_eax
	`)
	if out.String() != want.String() {
		t.Errorf("Apply mismatch:\n%s\n--- want ---\n%s", out, want)
	}
	// Insertion order must be preserved (downstream fingerprints hash
	// it).
	for i, c := range out.Constraints() {
		if c != want.Constraints()[i] {
			t.Fatalf("constraint %d out of order: %s vs %s", i, c, want.Constraints()[i])
		}
	}
}
