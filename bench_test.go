// Benchmarks regenerating each table and figure of the paper's
// evaluation (§6), plus micro-benchmarks of the core algorithms and
// ablations of the design choices called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package retypd

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/baselines"
	"retypd/internal/constraints"
	"retypd/internal/corpus"
	"retypd/internal/eval"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/solver"
	"retypd/internal/summaries"
)

// benchCorpus caches one mid-sized benchmark program.
var benchCorpus = func() *asm.Program {
	b := corpus.Generate("bench", 1234, 4000)
	return asm.MustParse(b.Source)
}()

var benchBench = corpus.Generate("bench", 1234, 4000)

// mustSolve runs the solver pipeline on prog on a fresh engine with
// sessions off, panicking on error: the corpora here always analyze,
// and a panic keeps the failing run's stack.
func mustSolve(prog *asm.Program, lat *lattice.Lattice, opts solver.Options) *solver.Result {
	eng := solver.NewEngine()
	eng.DisableSessionRecording()
	res, err := eng.InferContext(context.Background(), prog, lat, nil, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// BenchmarkFig7CorpusGen regenerates the Figure 7 benchmark inventory.
func BenchmarkFig7CorpusGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = corpus.GenerateSuite(corpus.SuiteOptions{Scale: 300, MaxClusterMembers: 2, Seed: 1})
	}
}

// BenchmarkFig8Distance scores the distance/interval metrics of
// Figure 8 (Retypd + all baselines over a small suite).
func BenchmarkFig8Distance(b *testing.B) {
	cfg := eval.QuickConfig()
	for i := 0; i < b.N; i++ {
		s := eval.RunSuite(cfg)
		_ = eval.Figure8(s)
	}
}

// BenchmarkFig9Conservativeness regenerates Figure 9's metrics.
func BenchmarkFig9Conservativeness(b *testing.B) {
	cfg := eval.QuickConfig()
	for i := 0; i < b.N; i++ {
		s := eval.RunSuite(cfg)
		_ = eval.Figure9(s)
	}
}

// BenchmarkFig10Clusters regenerates the Figure 10 cluster table.
func BenchmarkFig10Clusters(b *testing.B) {
	cfg := eval.QuickConfig()
	for i := 0; i < b.N; i++ {
		s := eval.RunSuite(cfg)
		_ = eval.Figure10(s)
	}
}

// BenchmarkFig11Fig12Scaling runs the size sweep behind Figures 11
// and 12 once and renders both: the time fit (the paper's N^1.098) and
// the memory fit (N^0.846).
func BenchmarkFig11Fig12Scaling(b *testing.B) {
	cfg := eval.Config{Fig11Sizes: []int{500, 1000, 2000, 4000}}
	for i := 0; i < b.N; i++ {
		points := eval.RunScaling(cfg)
		_ = eval.Figure11(points)
		_ = eval.Figure12(points)
	}
}

// BenchmarkConstRecall regenerates the §6.4 const-recovery number.
func BenchmarkConstRecall(b *testing.B) {
	cfg := eval.QuickConfig()
	for i := 0; i < b.N; i++ {
		s := eval.RunSuite(cfg)
		_ = eval.ConstReport(s)
	}
}

// --- core-algorithm micro benchmarks ---

// BenchmarkInferWholeProgram runs the full pipeline on a 4K-instruction
// program (the per-N cost behind Figure 11).
func BenchmarkInferWholeProgram(b *testing.B) {
	lat := lattice.Default()
	opts := solver.DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mustSolve(benchCorpus, lat, opts)
	}
}

// BenchmarkInferParallel sweeps the staged pipeline's worker count on
// the same 4K-instruction program (Appendix F: per-SCC scheme inference
// is embarrassingly parallel across independent call-graph components).
// The legacy row replicates the pre-pipeline configuration — sequential
// and without the scheme/shape memos or body dedup — so the speedup of
// workers=N over legacy is the end-to-end win of this refactor; on a
// single-CPU host the memo layers alone carry it.
func BenchmarkInferParallel(b *testing.B) {
	lat := lattice.Default()
	run := func(workers int, noCache bool) func(b *testing.B) {
		return func(b *testing.B) {
			opts := solver.DefaultOptions()
			opts.Workers = workers
			opts.NoSchemeCache = noCache
			opts.NoShapeCache = noCache
			opts.NoBodyDedup = noCache
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = mustSolve(benchCorpus, lat, opts)
			}
		}
	}
	b.Run("legacy", run(1, true))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), run(w, false))
	}
}

// generateAll regenerates every procedure's raw constraint set from the
// CFG analyses and callee schemes of a finished run (results keep no raw
// sets), linking same-SCC callees monomorphically as the pipeline does.
func generateAll(res *solver.Result) []*constraints.Set {
	isConst := func(v constraints.Var) bool { _, ok := res.Lat.Elem(string(v)); return ok }
	var out []*constraints.Set
	for _, scc := range res.SCCs {
		schemeOf := func(name string) *constraints.Scheme {
			if pr, ok := res.Procs[name]; ok && !slices.Contains(scc, name) {
				return pr.Scheme
			}
			return nil
		}
		for _, p := range scc {
			out = append(out, absint.Generate(res.Infos[p], res.Infos, schemeOf, summaries.Default(), isConst, absint.Options{}).Constraints)
		}
	}
	return out
}

// BenchmarkConstraintGen isolates Appendix A constraint generation:
// every procedure of the program, against the schemes of one run.
func BenchmarkConstraintGen(b *testing.B) {
	res := mustSolve(benchCorpus, lattice.Default(), solver.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = generateAll(res)
	}
}

// BenchmarkSaturation isolates the Algorithm D.2 saturation fixpoint on
// a recursive constraint set.
func BenchmarkSaturation(b *testing.B) {
	cs := constraints.MustParseSet(`
		F.in_stack0 <= a
		a <= b
		b.load.σ32@0 <= c
		c <= b
		b.load.σ32@4 <= d
		A <= b.store.σ32@8
		b.load.σ32@8 <= B
		d <= int
		int <= F.out_eax
	`)
	lat := lattice.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := pgraph.Build(cs, lat)
		g.Saturate()
	}
}

// BenchmarkSimplify isolates type-scheme simplification (§5).
func BenchmarkSimplify(b *testing.B) {
	lat := lattice.Default()
	// A chain of copies through many internal variables.
	cs := constraints.NewSet()
	prev := "F.in_stack0"
	for i := 0; i < 40; i++ {
		next := fmt.Sprintf("v%d", i)
		cs.InsertAll(constraints.MustParseSet(prev + " <= " + next))
		prev = next
	}
	cs.InsertAll(constraints.MustParseSet(prev + " <= F.out_eax"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := pgraph.Build(cs, lat)
		_ = g.Simplify(func(v constraints.Var) bool { return v == "F" })
	}
}

// --- ablations (DESIGN.md §6) ---

// BenchmarkAblationUnifyVsSub compares the subtype solver against the
// unification baseline on the same program (the §2.5 argument).
func BenchmarkAblationUnifyVsSub(b *testing.B) {
	lat := lattice.Default()
	b.Run("subtyping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := baselines.Retypd().Run(benchCorpus, lat)
			_ = eval.ScoreOutcome(o, benchBench)
		}
	})
	b.Run("unification", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := baselines.Unify().Run(benchCorpus, lat)
			_ = eval.ScoreOutcome(o, benchBench)
		}
	})
}

// BenchmarkAblationMonomorphic measures the cost/benefit of callsite
// instantiation (§2.2).
func BenchmarkAblationMonomorphic(b *testing.B) {
	lat := lattice.Default()
	for _, mono := range []bool{false, true} {
		name := "polymorphic"
		if mono {
			name = "monomorphic"
		}
		b.Run(name, func(b *testing.B) {
			opts := solver.DefaultOptions()
			opts.Absint = absint.Options{MonomorphicCalls: mono}
			for i := 0; i < b.N; i++ {
				_ = mustSolve(benchCorpus, lat, opts)
			}
		})
	}
}

// BenchmarkAblationNoSimplify measures per-SCC scheme simplification
// against carrying raw constraint sets (§5.3's n³-locality argument is
// about exactly this).
func BenchmarkAblationNoSimplify(b *testing.B) {
	lat := lattice.Default()
	cs := constraints.NewSet()
	// One big raw set: all constraints of the benchmark program.
	for _, gen := range generateAll(mustSolve(benchCorpus, lat, solver.DefaultOptions())) {
		cs.InsertAll(gen)
	}
	b.Run("per-SCC-schemes", func(b *testing.B) {
		o := solver.DefaultOptions()
		for i := 0; i < b.N; i++ {
			_ = mustSolve(benchCorpus, lat, o)
		}
	})
	b.Run("whole-program-saturation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := pgraph.Build(cs, lat)
			g.Saturate()
		}
	})
}
