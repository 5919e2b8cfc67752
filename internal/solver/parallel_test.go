package solver

import (
	"testing"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
)

func cfgBuild(prog *asm.Program) *cfg.CallGraph { return cfg.BuildCallGraph(prog) }

// parallelProg is a mid-sized generated program with enough independent
// procedures to exercise every pipeline stage.
func parallelProg(t testing.TB) *asm.Program {
	t.Helper()
	b := corpus.Generate("par", 99, 1500)
	prog, err := asm.Parse(b.Source)
	if err != nil {
		t.Fatalf("corpus does not parse: %v", err)
	}
	return prog
}

// dump renders everything the pipeline infers that tests compare.
func dump(res *Result) string {
	return res.DumpSchemes() + "\n===\n" + res.DumpSpecialized()
}

// TestParallelMatchesSequential: the concurrent pipeline must produce
// byte-identical schemes AND specialized parameter sketches for every
// worker count, with and without the simplification and shape memos —
// the golden diff of the cache-on vs cache-off contract.
func TestParallelMatchesSequential(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()

	base := DefaultOptions()
	base.Workers = 1
	base.NoSchemeCache = true
	base.NoShapeCache = true
	want := dump(Infer(prog, lat, nil, base))

	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"workers=1+cache", func(o *Options) { o.Workers = 1 }},
		{"workers=2", func(o *Options) { o.Workers = 2 }},
		{"workers=4", func(o *Options) { o.Workers = 4 }},
		{"workers=8+cache", func(o *Options) { o.Workers = 8 }},
		{"workers=4-cache", func(o *Options) { o.Workers = 4; o.NoSchemeCache = true; o.NoShapeCache = true }},
		{"workers=4-shapecache", func(o *Options) { o.Workers = 4; o.NoShapeCache = true }},
		{"workers=1-schemecache", func(o *Options) { o.Workers = 1; o.NoSchemeCache = true }},
		{"workers=auto", func(o *Options) { o.Workers = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.mod(&opts)
			got := dump(Infer(prog, lat, nil, opts))
			if got != want {
				t.Errorf("output diverged from sequential/no-cache baseline (len %d vs %d)",
					len(got), len(want))
			}
		})
	}
}

// TestInferDeterministic runs the full pipeline 20× (mixed worker
// counts) and asserts byte-identical DumpSchemes and SpecializedIns
// output every time — the F.2/F.3 join-order bugfix.
func TestInferDeterministic(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	var want string
	for i := 0; i < 20; i++ {
		opts := DefaultOptions()
		opts.Workers = 1 + i%4
		got := dump(Infer(prog, lat, nil, opts))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d (workers=%d) diverged from run 0", i, opts.Workers)
		}
	}
}

// TestSchemeCacheShared: a caller-provided cache is consulted across
// Infer calls — the second run over the same program must be nearly
// all hits.
func TestSchemeCacheShared(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	cache := pgraph.NewSimplifyCache(0)

	opts := DefaultOptions()
	opts.KeepIntermediates = false
	opts.SchemeCache = cache

	r1 := Infer(prog, lat, nil, opts)
	h1, m1 := cache.Stats()
	r2 := Infer(prog, lat, nil, opts)
	h2, _ := cache.Stats()

	if h2 == h1 {
		t.Errorf("second run over the same program produced no cache hits (hits %d→%d, misses after run1 %d)", h1, h2, m1)
	}
	if r1.DumpSchemes() != r2.DumpSchemes() {
		t.Error("shared cache changed inferred schemes between runs")
	}
}

// TestNoSchemeCacheWinsOverProvidedCache: NoSchemeCache must disable
// memoization even when a shared cache was handed in — uncached
// baseline measurements depend on it.
func TestNoSchemeCacheWinsOverProvidedCache(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	cache := pgraph.NewSimplifyCache(0)

	opts := DefaultOptions()
	opts.KeepIntermediates = false
	opts.SchemeCache = cache
	opts.NoSchemeCache = true
	res := Infer(prog, lat, nil, opts)

	if h, m := cache.Stats(); h != 0 || m != 0 {
		t.Errorf("provided cache was consulted despite NoSchemeCache (hits=%d misses=%d)", h, m)
	}
	if res.SchemeCacheHits != 0 || res.SchemeCacheMisses != 0 {
		t.Errorf("result reports cache activity despite NoSchemeCache (%d/%d)",
			res.SchemeCacheHits, res.SchemeCacheMisses)
	}
}

// TestShapeCacheGoldenOnOff: full-output golden diff — DumpSchemes and
// DumpSpecialized must be byte-identical with the shape memo on
// (shared, so the second run is nearly all hits) and fully off.
func TestShapeCacheGoldenOnOff(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()

	off := DefaultOptions()
	off.Workers = 2
	off.NoShapeCache = true
	want := dump(Infer(prog, lat, nil, off))

	cache := sketch.NewShapeCache(0)
	for run := 0; run < 2; run++ {
		on := DefaultOptions()
		on.Workers = 2
		on.ShapeCache = cache
		res := Infer(prog, lat, nil, on)
		if got := dump(res); got != want {
			t.Fatalf("run %d: shape cache changed output (len %d vs %d)", run, len(got), len(want))
		}
		if run == 1 && res.ShapeCacheHits == 0 {
			t.Error("second shared-cache run produced no shape-cache hits")
		}
	}
}

// TestShapeCacheDeterministic runs the pipeline 20× with one shared
// shape memo across mixed worker counts: every run is served an
// increasing mix of cached sketches and must stay byte-identical.
func TestShapeCacheDeterministic(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	cache := sketch.NewShapeCache(0)
	var want string
	for i := 0; i < 20; i++ {
		opts := DefaultOptions()
		opts.Workers = 1 + i%4
		opts.ShapeCache = cache
		got := dump(Infer(prog, lat, nil, opts))
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d (workers=%d) diverged from run 0", i, opts.Workers)
		}
	}
}

// TestShapeCacheShared: a caller-provided shape memo is consulted
// across Infer calls — the second run over the same program must be
// nearly all hits, skipping Build+Saturate+shape inference.
func TestShapeCacheShared(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	cache := sketch.NewShapeCache(0)

	opts := DefaultOptions()
	opts.KeepIntermediates = false
	opts.ShapeCache = cache

	r1 := Infer(prog, lat, nil, opts)
	r2 := Infer(prog, lat, nil, opts)
	if r1.ShapeCacheHits+r1.ShapeCacheMisses == 0 {
		t.Fatal("first run never consulted the shape cache")
	}
	if r2.ShapeCacheMisses != 0 {
		t.Errorf("second run over the same program missed %d times (hits %d)",
			r2.ShapeCacheMisses, r2.ShapeCacheHits)
	}
	if r1.DumpSpecialized() != r2.DumpSpecialized() {
		t.Error("shared shape cache changed specialized sketches between runs")
	}
}

// TestShapeCacheServedSketchImmutable: the guard contract end-to-end —
// a cache-served ProcResult.Sketch is sealed, decorating it panics,
// and F.3 specialization must have left every served sketch intact.
func TestShapeCacheServedSketchImmutable(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	cache := sketch.NewShapeCache(0)

	opts := DefaultOptions()
	opts.ShapeCache = cache
	res := Infer(prog, lat, nil, opts)
	if res.ShapeCacheHits == 0 {
		t.Fatal("corpus produced no shape-cache hits; guard test needs served sketches")
	}

	var served *sketch.Sketch
	var servedProc string
	for name, pr := range res.Procs {
		if pr.Sketch != nil && pr.Sketch.Sealed() {
			served, servedProc = pr.Sketch, name
			break
		}
	}
	if served == nil {
		t.Fatal("no sealed sketch found in results despite cache hits")
	}

	g := pgraph.Build(res.Procs[servedProc].Constraints(), lat)
	defer g.Release()
	dec := sketch.NewDecorator(g)
	defer dec.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Decorate on a cache-served sketch did not panic")
			}
		}()
		dec.Decorate(served, "anything")
	}()
}

// TestNoShapeCacheWinsOverProvidedCache: NoShapeCache must disable
// memoization even when a shared cache was handed in.
func TestNoShapeCacheWinsOverProvidedCache(t *testing.T) {
	prog := parallelProg(t)
	lat := lattice.Default()
	cache := sketch.NewShapeCache(0)

	opts := DefaultOptions()
	opts.KeepIntermediates = false
	opts.ShapeCache = cache
	opts.NoShapeCache = true
	// Body dedup also seals the sketches it shares across class
	// members; turn it off so the sealed check below isolates the shape
	// cache.
	opts.NoBodyDedup = true
	res := Infer(prog, lat, nil, opts)

	if h, m := cache.Stats(); h != 0 || m != 0 {
		t.Errorf("provided cache was consulted despite NoShapeCache (hits=%d misses=%d)", h, m)
	}
	if res.ShapeCacheHits != 0 || res.ShapeCacheMisses != 0 {
		t.Errorf("result reports cache activity despite NoShapeCache (%d/%d)",
			res.ShapeCacheHits, res.ShapeCacheMisses)
	}
	if pr := res.Procs[res.SCCs[0][0]]; pr.Sketch != nil && pr.Sketch.Sealed() {
		t.Error("uncached run produced sealed sketches")
	}
}

// TestSCCLevelsPartition: every SCC appears in exactly one level, and
// no two same-level SCCs are connected by a call edge.
func TestSCCLevelsPartition(t *testing.T) {
	prog := parallelProg(t)
	cg := cfgBuild(prog)
	levels := sccLevels(cg)

	seen := map[int]int{} // scc index → level
	for lv, idxs := range levels {
		for _, i := range idxs {
			if prev, dup := seen[i]; dup {
				t.Fatalf("SCC %d in levels %d and %d", i, prev, lv)
			}
			seen[i] = lv
		}
	}
	if len(seen) != len(cg.SCCs) {
		t.Fatalf("levels cover %d SCCs, call graph has %d", len(seen), len(cg.SCCs))
	}

	sccOf := map[string]int{}
	for i, scc := range cg.SCCs {
		for _, p := range scc {
			sccOf[p] = i
		}
	}
	for i, scc := range cg.SCCs {
		for _, p := range scc {
			for _, callee := range cg.Callees[p] {
				j, ok := sccOf[callee]
				if !ok || j == i {
					continue
				}
				if seen[i] <= seen[j] {
					t.Errorf("call %s→%s crosses levels %d→%d (caller must be strictly higher)",
						p, callee, seen[i], seen[j])
				}
			}
		}
	}
}
