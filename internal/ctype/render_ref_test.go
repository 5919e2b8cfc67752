package ctype

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"retypd/internal/label"
	"retypd/internal/sketch"
)

// referenceRender is the map-and-Sprintf renderer Type.String replaced,
// kept as the oracle for the single-builder writer. Like the writer, it
// cuts a cycle at the first pointer, struct or function node that
// recurs.
func referenceRender(t *Type, onPath map[*Type]bool) string {
	if t == nil {
		return "void"
	}
	prefix := ""
	if t.Const {
		prefix = "const "
	}
	tagSuffix := ""
	if len(t.Tags) > 0 {
		tagSuffix = " /* " + strings.Join(t.Tags, " ") + " */"
	}
	switch t.Kind {
	case KPrim:
		return prefix + CName(t.Name) + tagSuffix
	case KUnknown:
		switch t.Bits {
		case 8:
			return prefix + "uint8_t" + tagSuffix
		case 16:
			return prefix + "uint16_t" + tagSuffix
		default:
			return prefix + "int" + tagSuffix
		}
	case KPtr:
		if t.Elem != nil && t.Elem.Kind == KStruct && t.Elem.Name != "" {
			return prefix + t.Elem.Name + " *" + tagSuffix
		}
		if onPath[t] {
			return prefix + "void *" + tagSuffix
		}
		onPath[t] = true
		defer delete(onPath, t)
		return prefix + referenceRender(t.Elem, onPath) + " *" + tagSuffix
	case KStruct:
		if onPath[t] {
			if t.Name != "" {
				return t.Name
			}
			return "struct /* recursive */"
		}
		onPath[t] = true
		defer delete(onPath, t)
		var b strings.Builder
		b.WriteString(prefix + "struct ")
		if t.Name != "" {
			b.WriteString(t.Name + " ")
		}
		b.WriteString("{ ")
		for _, f := range t.Fields {
			fmt.Fprintf(&b, "%s field_%d; ", referenceRender(f.Type, onPath), f.Off)
		}
		b.WriteString("}")
		return b.String() + tagSuffix
	case KUnion:
		var parts []string
		for i, m := range t.Members {
			parts = append(parts, fmt.Sprintf("%s alt_%d;", referenceRender(m, onPath), i))
		}
		return prefix + "union { " + strings.Join(parts, " ") + " }" + tagSuffix
	case KFunc:
		if onPath[t] {
			return "void (*)()"
		}
		onPath[t] = true
		defer delete(onPath, t)
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, referenceRender(p, onPath))
		}
		if len(ps) == 0 {
			ps = []string{"void"}
		}
		return fmt.Sprintf("%s (*)(%s)%s", referenceRender(t.Ret, onPath), strings.Join(ps, ", "), tagSuffix)
	default:
		return "?"
	}
}

// randomType builds a random type graph over every Kind, with
// consts, tags, names, empty aggregates and back edges to pointer,
// struct and function ancestors (the cycles convert creates, which
// rendering cuts; convert builds unions of primitives only).
func randomType(r *rand.Rand, depth int, path []*Type) *Type {
	if len(path) > 0 && r.Intn(6) == 0 {
		if a := path[r.Intn(len(path))]; a.Kind != KUnion {
			return a
		}
	}
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return &Type{Kind: KUnknown, Bits: []int{0, 8, 16, 32}[r.Intn(4)], Const: r.Intn(3) == 0}
		case 2:
			return &Type{Kind: Kind(6 + r.Intn(2))} // not a known Kind
		default:
			t := Prim([]string{"int", "uint8", "str", "⊤", "FILE", "size_t"}[r.Intn(6)])
			t.Const = r.Intn(3) == 0
			return t
		}
	}
	t := &Type{Kind: []Kind{KPtr, KStruct, KUnion, KFunc}[r.Intn(4)], Const: r.Intn(3) == 0}
	if r.Intn(3) == 0 {
		t.Tags = []string{"#FileDescriptor", "#SuccessZ"}[:1+r.Intn(2)]
	}
	if t.Kind == KStruct && r.Intn(2) == 0 {
		t.Name = "Struct_" + strconv.Itoa(r.Intn(10))
	}
	path = append(path, t)
	n := r.Intn(4)
	switch t.Kind {
	case KPtr:
		t.Elem = randomType(r, depth-1, path)
	case KStruct:
		for i := 0; i < n; i++ {
			t.Fields = append(t.Fields, Field{Off: 4*i - 4, Bits: 32, Type: randomType(r, depth-1, path)})
		}
	case KUnion:
		for i := 0; i < n; i++ {
			t.Members = append(t.Members, randomType(r, depth-1, path))
		}
	case KFunc:
		for i := 0; i < n; i++ {
			t.Params = append(t.Params, randomType(r, depth-1, path))
		}
		t.Ret = randomType(r, depth-1, path)
	}
	return t
}

// TestStringMatchesReference: Type.String and Signature.String render
// random type graphs — cycles, consts, tags, empty aggregates, unknown
// kinds — exactly as the reference renderer does.
func TestStringMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		typ := randomType(r, 5, nil)
		if got, want := typ.String(), referenceRender(typ, map[*Type]bool{}); got != want {
			t.Fatalf("String() = %q, reference %q", got, want)
		}
		sig := &Signature{Name: "f" + strconv.Itoa(i), Ret: typ}
		for k := r.Intn(3); k > 0; k-- {
			sig.Params = append(sig.Params, Param{Type: randomType(r, 3, nil)})
		}
		var ps []string
		for _, p := range sig.Params {
			ps = append(ps, referenceRender(p.Type, map[*Type]bool{}))
		}
		if len(ps) == 0 {
			ps = []string{"void"}
		}
		want := fmt.Sprintf("%s %s(%s);", referenceRender(sig.Ret, map[*Type]bool{}), sig.Name, strings.Join(ps, ", "))
		if got := sig.String(); got != want {
			t.Fatalf("Signature.String() = %q, reference %q", got, want)
		}
	}
}

// TestCompareParamsMatchesFormattedKeys: compareParams orders
// locations exactly as comparing the "a%08d" / "b"+loc keys the
// converter used to format for every comparison.
func TestCompareParamsMatchesFormattedKeys(t *testing.T) {
	key := func(loc string) string {
		if strings.HasPrefix(loc, "stack") {
			if n, err := strconv.Atoi(loc[5:]); err == nil {
				return fmt.Sprintf("a%08d", n)
			}
		}
		return "b" + loc
	}
	locs := []string{
		"stack0", "stack4", "stack8", "stack12", "stack100", "stack05", "stack+5",
		"stack-4", "stack-1", "stack-12345678", "stack99999999", "stack100000000",
		"stack123456789012", "stack-9223372036854775808", "stack", "stackx", "stack 4",
		"eax", "ecx", "edx", "a", "", "zz",
	}
	for _, a := range locs {
		for _, b := range locs {
			if got, want := paramKey(nil, a), key(a); string(got) != want {
				t.Fatalf("paramKey(%q) = %q, want %q", a, got, want)
			}
			if got, want := compareParams(inEdge(a), inEdge(b)), strings.Compare(key(a), key(b)); got != want {
				t.Errorf("compareParams(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func inEdge(loc string) sketch.Edge { return sketch.Edge{Label: label.In(loc)} }
