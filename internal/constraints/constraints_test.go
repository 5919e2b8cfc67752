package constraints

import (
	"strings"
	"testing"

	"retypd/internal/label"
)

// TestParseDTVRoundTrip exercises derived-type-variable parsing.
func TestParseDTVRoundTrip(t *testing.T) {
	for _, s := range []string{
		"F",
		"F.in_stack0",
		"close_last.in_stack0.load.σ32@4",
		"malloc.out_eax",
		"τ0.load.σ32@0",
	} {
		d, err := ParseDTV(s)
		if err != nil {
			t.Fatalf("ParseDTV(%q): %v", s, err)
		}
		if d.String() != s {
			t.Errorf("round trip %q → %q", s, d.String())
		}
	}
}

// TestConstraintParse exercises the three constraint forms.
func TestConstraintParse(t *testing.T) {
	c, err := ParseConstraint("a.load <= b")
	if err != nil || c.Kind != KindSub {
		t.Fatalf("sub parse failed: %v %v", c, err)
	}
	c, err = ParseConstraint("x ⊑ y.store.σ32@0")
	if err != nil || c.Kind != KindSub {
		t.Fatalf("unicode sub parse failed: %v %v", c, err)
	}
	c, err = ParseConstraint("Add(x, y; z)")
	if err != nil || c.Kind != KindAdd {
		t.Fatalf("add parse failed: %v %v", c, err)
	}
	if c.X.Base() != "x" || c.Y.Base() != "y" || c.Z.Base() != "z" {
		t.Errorf("add operands wrong: %v", c)
	}
	if _, err := ParseConstraint("nonsense"); err == nil {
		t.Error("expected error for junk input")
	}
}

// TestSetDedup: a Set deduplicates structurally equal constraints.
func TestSetDedup(t *testing.T) {
	s := NewSet()
	d1, _ := ParseDTV("a")
	d2, _ := ParseDTV("b.load")
	if !s.AddSub(d1, d2) {
		t.Error("first insert should be new")
	}
	if s.AddSub(d1, d2) {
		t.Error("second insert should dedup")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

// TestVarianceOfDTV: derived variables carry the variance of their
// label word.
func TestVarianceOfDTV(t *testing.T) {
	d, _ := ParseDTV("F.in_stack0.store")
	if d.Variance() != label.Covariant {
		t.Error("in.store has two ⊖ labels: ⊕ overall")
	}
	d, _ = ParseDTV("F.in_stack0")
	if d.Variance() != label.Contravariant {
		t.Error("in is ⊖")
	}
}

// TestSchemeString renders the ∀/∃ form.
func TestSchemeString(t *testing.T) {
	cs := MustParseSet("F.in_stack0 <= τ0")
	sch := &Scheme{Root: "F", Constraints: cs, Existential: []Var{"τ0"}}
	s := sch.String()
	for _, want := range []string{"∀F", "∃τ0", "⇒ F"} {
		if !strings.Contains(s, want) {
			t.Errorf("scheme rendering missing %q: %s", want, s)
		}
	}
}

// TestParseSetComments: comments and blanks are skipped.
func TestParseSetComments(t *testing.T) {
	s, err := ParseSet(`
		// comment
		; asm-style comment

		a <= b
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}
