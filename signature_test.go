package retypd

import (
	"testing"

	"retypd/internal/corpus"
	"retypd/internal/ctype"
)

// freshRender returns a copy of res with a fresh converter, so that a
// rendering pass numbers its Struct_N typedefs from zero.
func freshRender(res *Result) *Result {
	return &Result{inner: res.inner, conv: ctype.NewConverter(res.inner.Lat)}
}

// TestSignatureMatchesMaterialisedSketches: Signature converts each
// formal and return value in place, from its state of the procedure
// sketch. Converting the materialised sub-sketches instead (InSketch /
// OutSketch, which Descend and recompute variances) must render every
// signature and typedef identically.
func TestSignatureMatchesMaterialisedSketches(t *testing.T) {
	for _, src := range []string{
		corpus.Generate("sigs", 5, 6000).Source,
		corpus.GenerateFleet("sigfleet", 2, 4000, 2, 0.5)[1].Source,
	} {
		res := Infer(MustParseAsm(src), nil)
		r := freshRender(res)
		ref := ctype.NewConverter(res.inner.Lat)
		for _, name := range r.ProcNames() {
			got := r.Signature(name).String()
			p := res.inner.Procs[name]
			want := &ctype.Signature{Name: name, Ret: ctype.Prim("void")}
			for _, l := range p.FormalIns {
				typ := ctype.Unknown()
				if sk, ok := p.InSketch(l.ParamName()); ok {
					typ = ref.ConvertParam(sk)
				}
				want.Params = append(want.Params, ctype.Param{Loc: l.ParamName(), Type: typ})
			}
			if p.HasOut {
				want.Ret = ctype.Unknown()
				if sk, ok := p.OutSketch(); ok {
					want.Ret = ref.FromSketch(sk)
				}
			}
			if got != want.String() {
				t.Fatalf("%s: in place %q, materialised %q", name, got, want.String())
			}
		}
		typedefs := r.Typedefs()
		if len(typedefs) != len(ref.Structs) {
			t.Fatalf("%d typedefs in place, %d materialised", len(typedefs), len(ref.Structs))
		}
		for i := range typedefs {
			if typedefs[i].String() != ref.Structs[i].String() {
				t.Fatalf("typedef %d: in place %q, materialised %q", i, typedefs[i], ref.Structs[i])
			}
		}
	}
}

// TestSignatureAllocsPerSignature is the render phase's deterministic
// allocation guard: one full Signature pass over a fixed Result
// allocates a bounded number of objects per signature (the Signature,
// its Params, location names, the C type nodes and the rendered
// string), not per sketch state copied or per formatted fragment.
func TestSignatureAllocsPerSignature(t *testing.T) {
	res := Infer(MustParseAsm(corpus.Generate("allocs", 1, 4000).Source), nil)
	names := res.ProcNames()
	allocs := testing.AllocsPerRun(5, func() {
		r := freshRender(res)
		for _, n := range names {
			_ = r.Signature(n).String()
		}
	})
	t.Logf("%d signatures, %.0f allocs", len(names), allocs)
	if limit := float64(8 * len(names)); allocs > limit {
		t.Fatalf("a Signature pass made %.0f allocations for %d signatures (limit %.0f)", allocs, len(names), limit)
	}
}
