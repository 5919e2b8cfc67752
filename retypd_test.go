package retypd

import (
	"context"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"retypd/internal/corpus"
)

const closeLastAsm = `
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

// TestFigure2Signature checks the displayed C types of Figure 2:
//
//	typedef struct { Struct_0 *field_0; int field_4; } Struct_0;
//	int close_last(const Struct_0 *);
func TestFigure2Signature(t *testing.T) {
	res := Infer(MustParseAsm(closeLastAsm), nil)
	sig := res.Signature("close_last")
	if sig == nil {
		t.Fatal("no signature for close_last")
	}
	s := sig.String()
	t.Logf("signature: %s", s)
	t.Logf("report:\n%s", res.Report())

	if len(sig.Params) != 1 {
		t.Fatalf("want 1 parameter, got %d (%s)", len(sig.Params), s)
	}
	p := sig.Params[0]
	if !p.Type.Const {
		t.Errorf("parameter should be const (Example 4.1): %s", s)
	}
	if p.Type.Kind != 1 /* KPtr */ {
		t.Errorf("parameter should be a pointer: %s", s)
	}
	if !strings.Contains(strings.ToLower(sig.Ret.String()), "int") {
		t.Errorf("return should display int, got %s", sig.Ret)
	}
	if !strings.Contains(sig.Ret.String(), "#SuccessZ") {
		t.Errorf("return should carry the #SuccessZ tag, got %s", sig.Ret)
	}
	// The recursive struct must have been rerolled into a named
	// typedef whose field_0 points back to itself.
	if len(res.Typedefs()) == 0 {
		t.Fatalf("expected a recursive struct typedef, got none; sig=%s", s)
	}
	st := res.Typedefs()[0]
	if len(st.Fields) != 2 || st.Fields[0].Off != 0 || st.Fields[1].Off != 4 {
		t.Errorf("struct shape wrong: %s", st)
	}
	if !res.IsConstParam("close_last", 0) {
		t.Error("IsConstParam should report the parameter const")
	}
}

var structN = regexp.MustCompile(`Struct_[0-9]+`)

// render returns r's signatures up to Struct_N numbering, rendering its
// typedefs on the way.
func render(r *Result) string {
	var b strings.Builder
	for _, p := range r.ProcNames() {
		b.WriteString(r.Signature(p).String() + "\n")
	}
	for _, td := range r.Typedefs() {
		_ = td.String()
	}
	return structN.ReplaceAllString(b.String(), "Struct_N")
}

// TestResultConcurrentRender: four goroutines render one Result at
// once (Signature, Typedefs and their strings). Renders share the
// Result's struct-naming converter; under -race this pins its guard.
// Every render gives a sequential render's signatures up to Struct_N
// numbering, which follows call order, and adds its own typedefs.
func TestResultConcurrentRender(t *testing.T) {
	prog := MustParseAsm(closeLastAsm + corpus.Generate("render", 5, 1500).Source)
	ref := Infer(prog, nil)
	want := render(ref)
	perRender := len(ref.Typedefs())
	if perRender == 0 {
		t.Fatal("program renders no typedefs; the test needs recursive structs")
	}

	res := Infer(prog, nil)
	const renders = 4
	got := make([]string, renders)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(res)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("render %d differs from a sequential render", i)
		}
	}
	if n := len(res.Typedefs()); n != renders*perRender {
		t.Errorf("%d typedefs after %d renders, want %d", n, renders, renders*perRender)
	}
}

// TestReanalyzeResultsRenderConcurrently: a Reanalyze result shares
// the procedure results and sealed sketches of everything the edit did
// not reach with the previous result. Rendering both results at once,
// from several goroutines each, gives every render the result's
// sequential rendering; under -race this pins that the sharing is
// read-only.
func TestReanalyzeResultsRenderConcurrently(t *testing.T) {
	src := closeLastAsm + corpus.Generate("render", 5, 1500).Source
	edited := strings.Replace(src, "proc close_last\n", "proc close_last\n    xor ecx, ecx\n", 1)
	eng := NewEngine(nil)
	prev := eng.Infer(MustParseAsm(src), nil)
	next := eng.Reanalyze(MustParseAsm(edited))
	if next.CacheStats().ReplayedProcs == 0 {
		t.Fatal("Reanalyze replayed nothing; the results share nothing")
	}
	want := []string{render(Infer(MustParseAsm(src), nil)), render(Infer(MustParseAsm(edited), nil))}

	results := []*Result{prev, next}
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(results[i%2])
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want[i%2] {
			t.Errorf("render %d (result %d) differs from a fresh run's", i, i%2)
		}
	}
}

// TestProcNamesSortedCopy: ProcNames is sorted and each call returns a
// copy the caller may modify.
func TestProcNamesSortedCopy(t *testing.T) {
	res := Infer(MustParseAsm(closeLastAsm+corpus.Generate("names", 3, 300).Source), nil)
	names := res.ProcNames()
	if !slices.IsSorted(names) || len(names) < 2 {
		t.Fatalf("ProcNames = %v, want a sorted list of several procedures", names)
	}
	names[0] = "clobbered"
	if again := res.ProcNames(); again[0] == "clobbered" || !slices.IsSorted(again) {
		t.Error("modifying ProcNames' result changed the next call's")
	}
}

// TestPackageInferIsOneShot: the package-level InferContext is a run on
// a throwaway engine, so nothing outlives it. A second call on the same
// program starts from empty memos: it misses exactly as the first did
// and is served nothing from an earlier run's body-class table. Both
// equal an Engine's first run of the program byte for byte.
func TestPackageInferIsOneShot(t *testing.T) {
	prog := MustParseAsm(closeLastAsm + corpus.Generate("oneshot", 11, 1500).Source)
	first, err := InferContext(context.Background(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := InferContext(context.Background(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := NewEngine(nil).InferContext(context.Background(), prog, nil)
	if err != nil {
		t.Fatal(err)
	}

	s1, s2 := first.CacheStats(), second.CacheStats()
	if s1.SchemeMisses == 0 || s1.ShapeMisses == 0 || s1.BodyDedupHits == 0 {
		t.Fatalf("program exercises too few memo layers for the test to bite: %+v", s1)
	}
	if s2.SchemeMisses != s1.SchemeMisses || s2.ShapeMisses != s1.ShapeMisses {
		t.Errorf("second call missed scheme %d / shape %d times, first %d / %d: memos outlived the call",
			s2.SchemeMisses, s2.ShapeMisses, s1.SchemeMisses, s1.ShapeMisses)
	}
	if s1.BodyDedupCrossHits != 0 || s2.BodyDedupCrossHits != 0 {
		t.Errorf("body classes outlived a call: cross hits %d, %d", s1.BodyDedupCrossHits, s2.BodyDedupCrossHits)
	}
	if s3 := viaEngine.CacheStats(); s3 != s1 || s2 != s1 {
		t.Errorf("cache stats differ: package %+v, %+v; engine %+v", s1, s2, s3)
	}
	// One Report per result: the display converter names typedefs
	// statefully, so repeated Report calls on one Result differ.
	want := viaEngine.Report()
	if first.Report() != want || second.Report() != want {
		t.Error("package-level InferContext output differs from an Engine run")
	}
}

// TestSharedShapeCachePublicAPI: an Engine shares its shape memo
// across Infer calls — the second call is served from memo without
// changing any displayed output — and NoShapeCache really disables it.
// Body dedup is off so the second call reaches the shape memo instead
// of being served whole from the engine's body-class table.
func TestSharedShapeCachePublicAPI(t *testing.T) {
	prog := MustParseAsm(closeLastAsm)
	eng := NewEngine(nil)

	baseline := Infer(prog, &Config{NoShapeCache: true, NoSchemeCache: true})
	r1 := eng.Infer(prog, &Config{NoBodyDedup: true})
	r2 := eng.Infer(prog, &Config{NoBodyDedup: true})

	// One Report per result: the display converter names typedefs
	// statefully, so repeated Report calls on one Result differ.
	base, rep1, rep2 := baseline.Report(), r1.Report(), r2.Report()
	if base != rep1 || rep1 != rep2 {
		t.Error("shape cache changed the displayed report")
	}
	s1, s2 := r1.CacheStats(), r2.CacheStats()
	if s1.ShapeMisses == 0 {
		t.Errorf("first run should miss into the shared cache (hits=%d misses=%d)", s1.ShapeHits, s1.ShapeMisses)
	}
	if s2.ShapeHits == 0 || s2.ShapeMisses != 0 {
		t.Errorf("second run should be all hits (hits=%d misses=%d)", s2.ShapeHits, s2.ShapeMisses)
	}
	sb := baseline.CacheStats()
	if sb.ShapeHits != 0 || sb.ShapeMisses != 0 {
		t.Errorf("NoShapeCache run reports cache activity (%d/%d)", sb.ShapeHits, sb.ShapeMisses)
	}
}

// TestBodyDedupPublicAPI: the public NoBodyDedup knob — output is
// byte-identical with whole-body dedup on and off, the default-on run
// reports its activity in CacheStats, and the knob really disables it.
func TestBodyDedupPublicAPI(t *testing.T) {
	prog := MustParseAsm(`
proc twin_a
    mov eax, [esp+4]
    add eax, 5
    ret
endproc
proc twin_b
    mov eax, [esp+4]
    add eax, 5
    ret
endproc
`)
	on := Infer(prog, nil)
	off := Infer(prog, &Config{NoBodyDedup: true})
	if on.Report() != off.Report() {
		t.Error("body dedup changed the displayed report")
	}
	if st := on.CacheStats(); st.BodyDedupHits == 0 {
		t.Errorf("twin procedures produced no body-dedup hits (%+v)", st)
	}
	if st := off.CacheStats(); st.BodyDedupHits != 0 || st.BodyDedupMisses != 0 {
		t.Errorf("NoBodyDedup run reports dedup activity (%+v)", st)
	}
}
