// Package baselines re-implements the algorithmic cores of the systems
// the paper compares against (§6.5, §7):
//
//   - Unify: a SecondWrite-style unification-based inference — the very
//     same constraints, but solved by congruence closure (every value
//     copy unifies the two types). Over-unification through false
//     register parameters, shared zero constants and fortuitous value
//     reuse degrades it exactly as §2.1/§2.5 describe.
//   - TIEStyle: a TIE-style monomorphic subtype inference with upper
//     and lower bounds but no polymorphism and no recursive types
//     (sketch depth is truncated; §7 notes TIE lacks recursive types).
//   - RewardsStyle: a REWARDS-style trace-based unification — the
//     unification solver restricted to instructions covered by a
//     simulated dynamic trace.
//
// Each baseline produces the same Outcome shape as the main pipeline so
// that the evaluation harness scores all systems identically.
package baselines

import (
	"context"
	"hash/fnv"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
	"retypd/internal/solver"
	"retypd/internal/summaries"
)

// Outcome is the scored interface of a system run.
type Outcome struct {
	Lat     *lattice.Lattice
	Formals map[string][]cfg.Loc
	HasOut  map[string]bool
	// ParamSk and OutSk return nil when the system produced nothing.
	ParamSk func(proc, loc string) *sketch.Sketch
	OutSk   func(proc string) *sketch.Sketch
	// BodyDedupHits/Misses report the solver's whole-body dedup layer
	// for this run (zero for systems that bypass the solver pipeline —
	// unlike the scheme/shape memos, the dedup table is per-run, so its
	// stats surface per outcome rather than on a shared cache object).
	BodyDedupHits, BodyDedupMisses uint64
}

// System is a runnable type-inference configuration.
type System struct {
	Name string
	Run  func(prog *asm.Program, lat *lattice.Lattice) *Outcome
}

// Retypd is the paper's system (the main pipeline).
func Retypd() System { return RetypdEngine(nil) }

// RetypdEngine is Retypd running inside a caller-provided long-lived
// solver.Engine: every Run shares the engine's scheme-simplification
// and shape memos (with any other system on the same engine). Sharing
// is sound across programs and configurations — cache safety comes
// from the canonical keys, see the contracts on pgraph.SimplifyCache
// and sketch.ShapeCache — and lets duplicate leaf procedures across a
// whole benchmark suite be simplified and shape-solved once. A nil
// engine gives each Run a fresh engine of its own.
func RetypdEngine(eng *solver.Engine) System {
	return System{Name: "Retypd", Run: func(prog *asm.Program, lat *lattice.Lattice) *Outcome {
		return outcomeFromSolver(infer(eng, prog, lat, solver.DefaultOptions()), lat)
	}}
}

// TIEStyle is the monomorphic, recursion-free subtype baseline.
func TIEStyle() System { return TIEStyleEngine(nil) }

// TIEStyleEngine is TIEStyle sharing a solver.Engine; see RetypdEngine.
// Sharing one engine with Retypd is sound even though TIE* truncates
// sketch depth — the depth bound is part of the shape-cache key.
func TIEStyleEngine(eng *solver.Engine) System {
	return System{Name: "TIE*", Run: func(prog *asm.Program, lat *lattice.Lattice) *Outcome {
		opts := solver.DefaultOptions()
		opts.Absint = absint.Options{MonomorphicCalls: true, PolymorphicExternals: true}
		opts.MaxSketchDepth = 3
		opts.NoSpecialize = true
		return outcomeFromSolver(infer(eng, prog, lat, opts), lat)
	}}
}

// infer runs the solver on eng, or on a fresh engine with sessions off
// when eng is nil. The systems are scored on well-formed corpora with
// no deadline, so an error is a bug: it panics, keeping the stack.
func infer(eng *solver.Engine, prog *asm.Program, lat *lattice.Lattice, opts solver.Options) *solver.Result {
	if eng == nil {
		eng = solver.NewEngine()
		eng.DisableSessionRecording()
	}
	res, err := eng.InferContext(context.TODO(), prog, lat, nil, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func outcomeFromSolver(res *solver.Result, lat *lattice.Lattice) *Outcome {
	o := &Outcome{
		Lat:             lat,
		Formals:         map[string][]cfg.Loc{},
		HasOut:          map[string]bool{},
		BodyDedupHits:   res.BodyDedupHits,
		BodyDedupMisses: res.BodyDedupMisses,
	}
	for name, pi := range res.Infos {
		o.Formals[name] = pi.FormalIns
		o.HasOut[name] = pi.HasOut
	}
	o.ParamSk = func(proc, loc string) *sketch.Sketch {
		pr, ok := res.Procs[proc]
		if !ok {
			return nil
		}
		if sk, ok := pr.InSketch(loc); ok {
			return sk
		}
		return nil
	}
	o.OutSk = func(proc string) *sketch.Sketch {
		pr, ok := res.Procs[proc]
		if !ok {
			return nil
		}
		if sk, ok := pr.OutSketch(); ok {
			return sk
		}
		return nil
	}
	return o
}

// Unify is the SecondWrite-style unification baseline. Externals are
// monomorphic too: without per-allocation-site points-to precision,
// every malloc result shares one type variable — the §2.7 degradation
// the paper attributes to SecondWrite on large programs.
func Unify() System {
	return System{Name: "SecondWrite*", Run: func(prog *asm.Program, lat *lattice.Lattice) *Outcome {
		return runUnify(prog, lat, nil, false)
	}}
}

// RewardsStyle is the trace-restricted unification baseline; coverage
// simulates a dynamic run that executes roughly the given fraction of
// each procedure's instructions (deterministic in the name and index).
func RewardsStyle(coverage float64) System {
	return System{Name: "REWARDS*", Run: func(prog *asm.Program, lat *lattice.Lattice) *Outcome {
		covered := func(proc string, idx int) bool {
			h := fnv.New32a()
			_, _ = h.Write([]byte(proc))
			v := h.Sum32() ^ uint32(idx*2654435761)
			return float64(v%1000)/1000 < coverage
		}
		// Traces separate callsites naturally (each dynamic call is
		// its own event), so externals stay per-callsite.
		return runUnify(prog, lat, covered, true)
	}}
}

func runUnify(prog *asm.Program, lat *lattice.Lattice, covered func(string, int) bool, polyExt bool) *Outcome {
	infos := cfg.AnalyzeProgram(prog)
	sums := summaries.Default()
	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}
	opts := absint.Options{
		MonomorphicCalls:      true,
		PolymorphicExternals:  polyExt,
		NoConstantSuppression: true,
		Covered:               covered,
	}
	global := constraints.NewSet()
	for _, p := range prog.Procs {
		gr := absint.Generate(infos[p.Name], infos, nil, sums, isConst, opts)
		global.InsertAll(gr.Constraints)
	}
	// The quotient IS unification: subtype edges become equalities.
	shapes := sketch.NewBuilder(global, lat)

	o := &Outcome{
		Lat:     lat,
		Formals: map[string][]cfg.Loc{},
		HasOut:  map[string]bool{},
	}
	for name, pi := range infos {
		o.Formals[name] = pi.FormalIns
		o.HasOut[name] = pi.HasOut
	}
	descend := func(proc string, w label.Word) *sketch.Sketch {
		root := shapes.SketchForUnify(constraints.Var(proc), 6)
		if sub, ok := root.Descend(w); ok {
			return sub
		}
		return nil
	}
	o.ParamSk = func(proc, loc string) *sketch.Sketch {
		return descend(proc, label.Word{label.In(loc)})
	}
	o.OutSk = func(proc string) *sketch.Sketch {
		return descend(proc, label.Word{label.Out("eax")})
	}
	return o
}
