// Package ctype implements the final phase of type resolution (§4.3):
// converting inferred sketches into human-readable C types. The
// conversion is deliberately heuristic — the paper sequesters all
// unsound, C-specific policies into this phase so that the inference
// core stays sound:
//
//   - Example 4.1: const recovery — a pointer parameter with a .load
//     capability and no .store capability is rendered const.
//   - Example 4.2: union types — incomparable scalar lower bounds form
//     an antichain in Λ and are rendered as a union.
//   - Example 4.3 / G.1: specialization — signatures use the
//     F.3-refined parameter sketches when available.
//   - Example G.3: reroll — unrolled recursive types are folded by the
//     sketch quotient/memoized struct naming (pointer cycles become
//     named struct references, as in Figure 2's Struct_0).
//   - Semantic tags (#FileDescriptor, #SuccessZ, …) are emitted as
//     comments on the underlying C type, matching Figure 2's
//     "int // #FileDescriptor" rendering.
package ctype

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
)

// Kind discriminates Type.
type Kind uint8

// Type kinds.
const (
	// KPrim is a primitive/typedef'd scalar named by Name.
	KPrim Kind = iota
	// KPtr is a pointer to Elem.
	KPtr
	// KStruct is a struct with Fields; Name is its typedef name.
	KStruct
	// KUnion is a union of Members.
	KUnion
	// KFunc is a function type.
	KFunc
	// KUnknown is an undetermined type (rendered per width).
	KUnknown
)

// Type is a C type AST node.
type Type struct {
	Kind    Kind
	Name    string
	Const   bool
	Elem    *Type
	Fields  []Field
	Members []*Type
	Params  []*Type
	Ret     *Type
	// Tags carries semantic purpose tags to render as comments.
	Tags []string
	// Bits is the scalar width for KPrim/KUnknown (0 = 32).
	Bits int

	// mark is the Converter's cycle-naming walk state for this node
	// (see nameCycles).
	mark uint8
}

// Field is a struct member.
type Field struct {
	Off  int
	Bits int
	Type *Type
}

// Prim makes a named scalar type.
func Prim(name string) *Type { return &Type{Kind: KPrim, Name: name} }

// PtrTo makes a pointer type.
func PtrTo(e *Type) *Type { return &Type{Kind: KPtr, Elem: e} }

// Unknown is an undetermined 32-bit type.
func Unknown() *Type { return &Type{Kind: KUnknown} }

// Equal reports structural equality (tags and const ignored), with a
// depth cut for recursive types.
func (t *Type) Equal(o *Type) bool { return equalDepth(t, o, 8) }

func equalDepth(a, b *Type, d int) bool {
	if a == nil || b == nil {
		return a == b
	}
	if d == 0 {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KPrim:
		return a.Name == b.Name
	case KPtr:
		return equalDepth(a.Elem, b.Elem, d-1)
	case KStruct:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Off != b.Fields[i].Off || !equalDepth(a.Fields[i].Type, b.Fields[i].Type, d-1) {
				return false
			}
		}
		return true
	case KUnion:
		if len(a.Members) != len(b.Members) {
			return false
		}
		for i := range a.Members {
			if !equalDepth(a.Members[i], b.Members[i], d-1) {
				return false
			}
		}
		return true
	case KFunc:
		if len(a.Params) != len(b.Params) {
			return false
		}
		for i := range a.Params {
			if !equalDepth(a.Params[i], b.Params[i], d-1) {
				return false
			}
		}
		return equalDepth(a.Ret, b.Ret, d-1)
	default:
		return true
	}
}

// primRender maps lattice element names to C spellings.
var primRender = map[string]string{
	"int":    "int",
	"uint":   "unsigned int",
	"int8":   "int8_t",
	"uint8":  "uint8_t",
	"int16":  "int16_t",
	"uint16": "uint16_t",
	"int32":  "int32_t",
	"uint32": "uint32_t",
	"int64":  "int64_t",
	"uint64": "uint64_t",
	"num8":   "uint8_t",
	"num16":  "uint16_t",
	"num32":  "uint32_t",
	"num64":  "uint64_t",
	"char":   "char",
	"bool":   "bool",
	"str":    "char *",
	"ptr":    "void *",
	"code":   "void (*)()",
	"⊤":      "void *",
	"⊥":      "void",
}

// CName renders a primitive name as C source.
func CName(name string) string {
	if c, ok := primRender[name]; ok {
		return c
	}
	return name
}

// String renders the type as a C type expression (without a declarator
// name).
func (t *Type) String() string {
	var b strings.Builder
	var path [8]*Type
	t.write(&b, path[:0])
	return b.String()
}

// write renders t into b. path holds the pointer, struct and function
// nodes being rendered above t, so that a cycle through them renders as
// a back reference instead of recursing forever. (Unions hold only
// primitives.)
func (t *Type) write(b *strings.Builder, path []*Type) {
	if t == nil {
		b.WriteString("void")
		return
	}
	prefix := ""
	if t.Const {
		prefix = "const "
	}
	switch t.Kind {
	case KPrim:
		b.WriteString(prefix)
		b.WriteString(CName(t.Name))
	case KUnknown:
		b.WriteString(prefix)
		switch t.Bits {
		case 8:
			b.WriteString("uint8_t")
		case 16:
			b.WriteString("uint16_t")
		default:
			b.WriteString("int") // IdaPro-style fallback
		}
	case KPtr:
		b.WriteString(prefix)
		switch {
		case t.Elem != nil && t.Elem.Kind == KStruct && t.Elem.Name != "":
			b.WriteString(t.Elem.Name)
		case slices.Contains(path, t):
			b.WriteString("void") // pointer cycle with no struct
		default:
			t.Elem.write(b, append(path, t))
		}
		b.WriteString(" *")
	case KStruct:
		if slices.Contains(path, t) {
			if t.Name != "" {
				b.WriteString(t.Name)
			} else {
				b.WriteString("struct /* recursive */")
			}
			return
		}
		path = append(path, t)
		b.WriteString(prefix)
		b.WriteString("struct ")
		if t.Name != "" {
			b.WriteString(t.Name)
			b.WriteByte(' ')
		}
		b.WriteString("{ ")
		for _, f := range t.Fields {
			f.Type.write(b, path)
			b.WriteString(" field_")
			b.WriteString(strconv.Itoa(f.Off))
			b.WriteString("; ")
		}
		b.WriteByte('}')
	case KUnion:
		b.WriteString(prefix)
		b.WriteString("union { ")
		for i, m := range t.Members {
			if i > 0 {
				b.WriteByte(' ')
			}
			m.write(b, path)
			b.WriteString(" alt_")
			b.WriteString(strconv.Itoa(i))
			b.WriteByte(';')
		}
		b.WriteString(" }")
	case KFunc:
		if slices.Contains(path, t) {
			b.WriteString(CName("code"))
			return
		}
		path = append(path, t)
		t.Ret.write(b, path)
		b.WriteString(" (*)(")
		if len(t.Params) == 0 {
			b.WriteString("void")
		}
		for i, p := range t.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			p.write(b, path)
		}
		b.WriteByte(')')
	default:
		b.WriteByte('?')
		return
	}
	if len(t.Tags) > 0 {
		b.WriteString(" /* ")
		for i, tag := range t.Tags {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(tag)
		}
		b.WriteString(" */")
	}
}

// Converter turns sketches into C types, accumulating named struct
// typedefs for recursive types. A Converter is not safe for concurrent
// use: every conversion runs in its reused scratch.
type Converter struct {
	Lat *lattice.Lattice
	// Structs lists the named struct types created so far, in creation
	// order.
	Structs []*Type
	nameN   int

	// sk is the sketch being converted; vars holds the display
	// variance of each of its states reachable from the conversion
	// root, and active the node under construction for each state on
	// the current conversion path (nil elsewhere, so all-nil between
	// conversions).
	sk     *sketch.Sketch
	vars   []label.Variance
	active []*Type
	// seen and stack are the variance walk's scratch.
	seen  []bool
	stack []int
	// edges is a stack of the in-edge and field-edge lists being
	// converted, one sorted segment per open function or struct.
	edges []sketch.Edge
	// scalars is scalar's scratch.
	scalars []lattice.Elem
	// path is nameCycles' scratch: the walk's current path.
	path []*Type
}

// NewConverter makes a converter over lat.
func NewConverter(lat *lattice.Lattice) *Converter {
	return &Converter{Lat: lat}
}

// FromSketch converts the sketch rooted at state 0.
func (c *Converter) FromSketch(sk *sketch.Sketch) *Type { return c.FromState(sk, 0) }

// ConvertParam converts a parameter sketch, applying the const policy
// (Example 4.1) at its root. The root is display-converted in
// contravariant position (function inputs prefer upper bounds, §3.5),
// and the returned node is a copy so that const does not leak into
// other references to a shared recursive type.
func (c *Converter) ConvertParam(sk *sketch.Sketch) *Type { return c.ParamFromState(sk, 0) }

// FromState converts the sub-sketch of sk rooted at state root: the
// type FromSketch gives for sk.Descend(w), w any word reaching root,
// without materialising that sketch. sk is only read, so it may be a
// sealed, shared one.
func (c *Converter) FromState(sk *sketch.Sketch, root int) *Type {
	return c.fromState(sk, root, false)
}

// ParamFromState is ConvertParam for the sub-sketch of sk rooted at
// state root, the counterpart of FromState.
func (c *Converter) ParamFromState(sk *sketch.Sketch, root int) *Type {
	t := c.fromState(sk, root, true)
	if t.Kind == KPtr && !t.Const && loadOnly(&sk.States[root]) {
		p := *t
		p.Const = true
		return &p
	}
	return t
}

func (c *Converter) fromState(sk *sketch.Sketch, root int, param bool) *Type {
	c.sk = sk
	c.setVariances(root, param)
	if n := len(sk.States); len(c.active) < n {
		c.active = make([]*Type, n)
	}
	t := c.convert(root, 32)
	c.sk = nil
	c.nameCycles(t)
	return t
}

// setVariances fills vars with the variances Descend would give the
// sub-sketch at root: the stored ones when root is the sketch's own
// root, otherwise recomputeVariance's walk — depth-first from a
// covariant root, the first variance found winning — over the states
// reachable from root. A parameter view then takes its root as
// contravariant, as WithRootVariance does.
func (c *Converter) setVariances(root int, param bool) {
	states := c.sk.States
	c.vars = slices.Grow(c.vars[:0], len(states))[:len(states)]
	if root == 0 {
		for i := range states {
			c.vars[i] = states[i].Variance
		}
	} else {
		c.seen = slices.Grow(c.seen[:0], len(states))[:len(states)]
		clear(c.seen)
		c.seen[root] = true
		c.vars[root] = label.Covariant
		c.stack = append(c.stack[:0], root)
		for len(c.stack) > 0 {
			st := c.stack[len(c.stack)-1]
			c.stack = c.stack[:len(c.stack)-1]
			for _, e := range states[st].Edges {
				if !c.seen[e.To] {
					c.seen[e.To] = true
					c.vars[e.To] = c.vars[st].Mul(e.Label.Variance())
					c.stack = append(c.stack, e.To)
				}
			}
		}
	}
	if param {
		c.vars[root] = label.Contravariant
	}
}

// nameCycles assigns typedef names to structs participating in type
// cycles (the reroll policy's output form, Example G.3) so that
// rendering terminates with a named back reference. On a back edge the
// first struct on the cycle segment is named. Every node reachable
// from t was allocated by the conversion that built t, so all start
// unwalked; the walk marks them on its path, then done.
func (c *Converter) nameCycles(t *Type) {
	c.walk(t)
	clear(c.path[:cap(c.path)])
}

// Type.mark values of the nameCycles walk.
const (
	unwalked uint8 = iota
	onPath
	walked
)

func (c *Converter) walk(t *Type) {
	if t == nil || t.mark == walked {
		return
	}
	if t.mark == onPath {
		i := len(c.path) - 1
		for c.path[i] != t {
			i--
		}
		for _, n := range c.path[i:] {
			if n.Kind == KStruct {
				if n.Name == "" {
					c.nameStruct(n)
				}
				return
			}
		}
		return
	}
	t.mark = onPath
	c.path = append(c.path, t)
	switch t.Kind {
	case KPtr:
		c.walk(t.Elem)
	case KStruct:
		for _, f := range t.Fields {
			c.walk(f.Type)
		}
	case KUnion:
		for _, m := range t.Members {
			c.walk(m)
		}
	case KFunc:
		for _, p := range t.Params {
			c.walk(p)
		}
		c.walk(t.Ret)
	}
	c.path = c.path[:len(c.path)-1]
	t.mark = walked
}

// convert implements the conversion policy tree for state st of c.sk.
func (c *Converter) convert(st int, bits int) *Type {
	if t := c.active[st]; t != nil {
		// Recursive back reference: ensure the target is a named
		// struct.
		if t.Kind == KStruct && t.Name == "" {
			c.nameStruct(t)
		}
		return t
	}
	node := &c.sk.States[st]

	// One pass classifies the edges: function capability dominates,
	// then pointer (the first load edge, else the first store edge),
	// then a bare struct.
	nIns, nFields := 0, 0
	outTo, loadTo, storeTo := -1, -1, -1
	for _, e := range node.Edges {
		switch e.Label.Kind() {
		case label.KIn:
			nIns++
		case label.KOut:
			if outTo < 0 {
				outTo = e.To
			}
		case label.KLoad:
			if loadTo < 0 {
				loadTo = e.To
			}
		case label.KStore:
			if storeTo < 0 {
				storeTo = e.To
			}
		case label.KField:
			nFields++
		}
	}

	if nIns > 0 || outTo >= 0 {
		ft := &Type{Kind: KFunc, Ret: Prim("void")}
		c.active[st] = ft
		base := len(c.edges)
		for _, e := range node.Edges {
			if e.Label.Kind() == label.KIn {
				c.edges = append(c.edges, e)
			}
		}
		slices.SortFunc(c.edges[base:], compareParams)
		if nIns > 0 {
			ft.Params = make([]*Type, 0, nIns)
		}
		for i := base; i < base+nIns; i++ {
			to := c.edges[i].To // re-read: the recursion may grow c.edges
			p := c.convert(to, 32)
			if p.Kind == KPtr && !p.Const && loadOnly(&c.sk.States[to]) {
				q := *p
				q.Const = true
				p = &q
			}
			ft.Params = append(ft.Params, p)
		}
		c.edges = c.edges[:base]
		if outTo >= 0 {
			ft.Ret = c.convert(outTo, 32)
		}
		c.active[st] = nil
		return ft
	}

	if loadTo >= 0 || storeTo >= 0 {
		pt := &Type{Kind: KPtr}
		c.active[st] = pt
		if loadTo < 0 {
			loadTo = storeTo
		}
		pt.Elem = c.pointee(loadTo)
		c.active[st] = nil
		return pt
	}

	if nFields > 0 {
		// A bare struct (e.g. a frame region's contents).
		return c.structOf(st, nFields)
	}

	return c.scalar(st, bits)
}

// pointee converts the target of a load/store edge: if it carries σ
// fields it is a struct; a lone field at offset 0 collapses to the
// field's own type. A target already being converted as a struct —
// a region loaded again while its fields are converted — is that
// struct, named as a recursive back reference like convert's.
func (c *Converter) pointee(st int) *Type {
	nFields := 0
	var only sketch.Edge
	for _, e := range c.sk.States[st].Edges {
		if e.Label.Kind() == label.KField {
			if nFields == 0 {
				only = e
			}
			nFields++
		}
	}
	switch {
	case nFields == 0:
		return c.scalar(st, 32)
	case nFields == 1 && only.Label.Offset() == 0:
		return c.convert(only.To, only.Label.Bits())
	}
	if t := c.active[st]; t != nil && t.Kind == KStruct {
		if t.Name == "" {
			c.nameStruct(t)
		}
		return t
	}
	return c.structOf(st, nFields)
}

// structOf assembles a struct type from the nFields σN@k edges of st,
// in offset order. st may already be active as the pointer whose
// pointee it is (a state that loads from itself); that entry is
// restored on return.
func (c *Converter) structOf(st, nFields int) *Type {
	t := &Type{Kind: KStruct, Fields: make([]Field, 0, nFields)}
	prev := c.active[st]
	c.active[st] = t
	base := len(c.edges)
	for _, e := range c.sk.States[st].Edges {
		if e.Label.Kind() == label.KField {
			c.edges = append(c.edges, e)
		}
	}
	slices.SortFunc(c.edges[base:], func(a, b sketch.Edge) int {
		return cmp.Compare(a.Label.Offset(), b.Label.Offset())
	})
	for i := base; i < base+nFields; i++ {
		e := c.edges[i] // re-read: the recursion may grow c.edges
		ft := c.convert(e.To, e.Label.Bits())
		t.Fields = append(t.Fields, Field{Off: e.Label.Offset(), Bits: e.Label.Bits(), Type: ft})
	}
	c.edges = c.edges[:base]
	c.active[st] = prev
	return t
}

// nameStruct assigns the next Struct_N typedef name.
func (c *Converter) nameStruct(t *Type) {
	t.Name = "Struct_" + strconv.Itoa(c.nameN)
	c.nameN++
	c.Structs = append(c.Structs, t)
}

// scalar applies the display policy for leaf nodes: prefer the
// informative bound for the node's variance; resolve incomparable
// lower bounds as a union (Example 4.2); carry semantic tags as
// comments; fall back per pointer/integer flags.
func (c *Converter) scalar(st int, bits int) *Type {
	node := &c.sk.States[st]

	// Primary set per variance (§3.5: covariant nodes carry joins of
	// lower bounds, contravariant nodes meets of upper bounds), with
	// the other side as fallback.
	primary, secondary := node.LowerSet, node.UpperSet
	if c.vars[st] == label.Contravariant {
		primary, secondary = node.UpperSet, node.LowerSet
	}
	scalars, tags := c.split(primary, c.scalars[:0], nil, true)
	if len(scalars) == 0 {
		scalars, tags = c.split(secondary, scalars, tags, true)
	} else {
		_, tags = c.split(secondary, nil, tags, false)
	}
	c.scalars = scalars
	tags = dedupe(tags)

	lat := c.Lat
	switch len(scalars) {
	case 0:
		var t *Type
		switch {
		case node.Flags&sketch.FlagPointer != 0:
			t = PtrTo(Prim("void"))
		case node.Flags&sketch.FlagInteger != 0:
			t = Prim("int")
		default:
			t = Unknown()
			t.Bits = bits
		}
		t.Tags = tags
		return t
	case 1:
		t := Prim(lat.Name(scalars[0]))
		t.Tags = tags
		return t
	default:
		// Example 4.2: incomparable scalar constraints become a union.
		u := &Type{Kind: KUnion, Tags: tags, Members: make([]*Type, len(scalars))}
		for i, e := range scalars {
			u.Members[i] = Prim(lat.Name(e))
		}
		return u
	}
}

// split sorts a bound set's members: semantic tags (names starting
// with '#') are appended to tags and, if withScalars, the other
// elements except ⊥ and ⊤ to scalars.
func (c *Converter) split(set, scalars []lattice.Elem, tags []string, withScalars bool) ([]lattice.Elem, []string) {
	lat := c.Lat
	for _, e := range set {
		if name := lat.Name(e); strings.HasPrefix(name, "#") {
			tags = append(tags, name)
		} else if withScalars && e != lat.Bottom() && e != lat.Top() {
			scalars = append(scalars, e)
		}
	}
	return scalars, tags
}

// loadOnly is Example 4.1's const test: the state has a .load
// capability and no .store capability.
func loadOnly(node *sketch.State) bool {
	hasLoad, hasStore := false, false
	for _, e := range node.Edges {
		switch e.Label.Kind() {
		case label.KLoad:
			hasLoad = true
		case label.KStore:
			hasStore = true
		}
	}
	return hasLoad && !hasStore
}

func dedupe(ss []string) []string {
	sort.Strings(ss)
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// compareParams orders in-edges by parameter location: stack
// parameters by offset, then registers by name. It compares the keys
// "a" + offset as %08d (stack) and "b" + location (register) as
// strings, built in stack buffers.
func compareParams(x, y sketch.Edge) int {
	var xb, yb [24]byte
	return bytes.Compare(paramKey(xb[:0], x.Label.Loc()), paramKey(yb[:0], y.Label.Loc()))
}

// paramKey appends loc's sort key to dst.
func paramKey(dst []byte, loc string) []byte {
	if strings.HasPrefix(loc, "stack") {
		if n, err := strconv.Atoi(loc[5:]); err == nil {
			var num [20]byte
			digits := strconv.AppendInt(num[:0], int64(n), 10)
			dst = append(dst, 'a')
			if pad := 8 - len(digits); pad > 0 {
				if n < 0 { // %08d pads between the sign and the digits
					dst = append(dst, '-')
					digits = digits[1:]
				}
				for ; pad > 0; pad-- {
					dst = append(dst, '0')
				}
			}
			return append(dst, digits...)
		}
	}
	return append(append(dst, 'b'), loc...)
}

// Signature is a rendered procedure signature.
type Signature struct {
	Name   string
	Ret    *Type
	Params []Param
}

// Param is one parameter of a Signature.
type Param struct {
	Loc  string
	Type *Type
}

// String renders the signature as a C declaration.
func (s *Signature) String() string {
	var b strings.Builder
	b.Grow(128) // the typical rendered length, so most signatures allocate once
	var path [8]*Type
	if s.Ret != nil {
		s.Ret.write(&b, path[:0])
	} else {
		b.WriteString("void")
	}
	b.WriteByte(' ')
	b.WriteString(s.Name)
	b.WriteByte('(')
	if len(s.Params) == 0 {
		b.WriteString("void")
	}
	for i, p := range s.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		p.Type.write(&b, path[:0])
	}
	b.WriteString(");")
	return b.String()
}
