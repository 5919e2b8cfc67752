// Package retypd is a from-scratch Go implementation of Retypd, the
// machine-code type-inference system of Noonan, Loginov and Cok,
// "Polymorphic Type Inference for Machine Code" (PLDI 2016).
//
// Retypd recovers high-level types from stripped machine code. It
// infers recursively constrained polymorphic type schemes (∀τ.C ⇒ τ)
// per procedure by encoding subtype-constraint entailment as an
// unconstrained pushdown system, solves the constraints over the
// lattice of sketches, and finally converts sketches to familiar C
// types with a separate, heuristic display phase (const recovery,
// unions, recursive struct typedefs).
//
// # Quick start
//
//	prog := retypd.MustParseAsm(src)      // the x86-like IR substrate
//	res := retypd.Infer(prog, nil)        // default Λ, libc summaries
//	for _, p := range res.ProcNames() {
//	    fmt.Println(res.Scheme(p))        // ∀F. (∃τ. C) ⇒ F
//	    fmt.Println(res.Signature(p))     // int close_last(const Struct_0 *);
//	}
//
// The Config hooks expose the paper's design space: a custom lattice Λ
// of atomic types and semantic tags (§2.8, §3.5), external function
// summaries (§4.2), monomorphic/trace-restricted constraint generation
// (the evaluation baselines), and the specialization policy (F.3).
package retypd

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/constraints"
	"retypd/internal/ctype"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
	"retypd/internal/solver"
	"retypd/internal/summaries"
)

// Re-exported substrate types, so that example programs and downstream
// tools need only this package.
type (
	// Program is a parsed assembly module.
	Program = asm.Program
	// Lattice is the auxiliary lattice Λ of atomic types.
	Lattice = lattice.Lattice
	// LatticeBuilder declares custom Λ elements and subtyping.
	LatticeBuilder = lattice.Builder
	// Summaries maps external symbols to type schemes.
	Summaries = summaries.Table
	// Sketch is the solved type representation (§3.5).
	Sketch = sketch.Sketch
	// CType is the displayed C type AST.
	CType = ctype.Type
	// Scheme is a recursively constrained polymorphic type scheme.
	Scheme = constraints.Scheme
	// Signature is a rendered C procedure signature.
	Signature = ctype.Signature
	// AnalysisError is the structured failure of one inference run: a
	// task panicked, the scheduler contained it, and nothing was
	// published. It carries the faulting task's identity (phase, SCC
	// index, procedure) and the original panic value and stack; the
	// engine that returned it remains usable. Returned by the *Context
	// entry points; the legacy entry points re-raise it as a panic.
	AnalysisError = solver.AnalysisError
	// LimitError reports an input rejected by the admission guards
	// (Config.MaxInstructions / MaxProcedures) before any analysis work
	// started.
	LimitError = solver.LimitError
	// ParseError is a structured assembly parse failure carrying the
	// 1-based source line; rendered as "asm:LINE: message".
	ParseError = asm.ParseError
)

// Config customizes inference; the zero value selects the
// paper-faithful configuration with the stock lattice and summaries.
type Config struct {
	// Lattice is the auxiliary lattice Λ of atomic types and semantic
	// tags (§2.8, §3.5). Nil selects the stock lattice
	// (lattice.Default()); build custom ones with NewLatticeBuilder.
	Lattice *Lattice
	// Summaries models external functions as type schemes (§4.2). Nil
	// selects the built-in libc-style table (summaries.Default()).
	Summaries Summaries
	// Monomorphic disables callsite-tagged scheme instantiation
	// (Example A.4): callee interface variables are shared by all
	// callers, as in the monomorphic evaluation baselines.
	Monomorphic bool
	// NoSpecialize disables the F.3 parameter-specialization policy
	// (Example 4.3): formals keep their most-general inferred sketches
	// instead of being met with the join of observed callsite actuals.
	NoSpecialize bool
	// MaxSketchDepth truncates recursive sketches when > 0, modeling
	// systems without recursive types (the TIE-style baseline). The
	// zero value means unbounded.
	MaxSketchDepth int
	// Workers bounds the solver pipeline's concurrency across all three
	// phases: 1 runs fully sequentially on the calling goroutine, 0
	// (the default) uses one worker per CPU, and any other positive
	// value caps the worker pool at that size. Inference output is
	// deterministic and byte-identical for every value.
	Workers int
	// NoSchemeCache disables simplification memoization entirely — the
	// knob used to measure the uncached baseline. By default a run
	// memoizes scheme simplification across procedures with isomorphic
	// constraint sets, in its engine's memo, which an Engine shares
	// across calls. The memo never changes inference output.
	NoSchemeCache bool
	// NoShapeCache disables phase-2 shape memoization entirely, the
	// sketch-solving counterpart of NoSchemeCache.
	NoShapeCache bool
	// MaxInstructions and MaxProcedures are admission guards for
	// multi-tenant callers: a program exceeding either bound is rejected
	// with a *LimitError before any analysis work — or goroutine —
	// starts. The zero value means unlimited. They never change
	// inference output for admitted programs.
	MaxInstructions int
	MaxProcedures   int
	// NoBodyDedup disables the solver's earliest memo layer:
	// whole-procedure body deduplication ahead of constraint
	// generation. By default, procedures whose IR bodies are equivalent
	// up to register/label renaming and interchangeable callees are
	// abstractly interpreted once per equivalence class and the results
	// translated to the other members. The layer never changes
	// inference output (it is byte-identical on and off) — only how
	// often the constraint-generating front end runs. Dedup activity is
	// reported in Result.CacheStats.
	NoBodyDedup bool
}

// Result is the inference outcome for a program. Its methods are safe
// for concurrent use.
type Result struct {
	inner *solver.Result

	// convMu guards conv: rendering a signature names recursive structs
	// (Struct_N) in the converter, so renders serialize.
	convMu sync.Mutex
	conv   *ctype.Converter

	// names is the sorted procedure list, built on the first ProcNames
	// call.
	namesOnce sync.Once
	names     []string
}

// ParseAsm parses the textual assembly substrate format.
func ParseAsm(src string) (*Program, error) { return asm.Parse(src) }

// MustParseAsm panics on parse errors.
func MustParseAsm(src string) *Program { return asm.MustParse(src) }

// NewLatticeBuilder returns the stock Λ as an extensible builder
// (§2.8: end users may adjust the initial type hierarchy).
func NewLatticeBuilder() *LatticeBuilder { return lattice.DefaultBuilder() }

// Infer runs the full Retypd pipeline on prog.
//
// Memory model: type-variable names and field-label paths are interned
// into a process-wide append-only symbol table (internal/intern), so
// re-inferring a program is free of new interning but the table grows
// with the number of distinct names ever seen and is not reclaimed.
// The variables the constraint generator mints are named by SCC slot
// and callsite, not by procedure, so they recur across programs: what
// keeps growing is procedure names and the derived type variables
// built on them. Streaming 8000-instruction binaries that share a
// renamed half through one Engine (the perfbench fleet stream, seed 2;
// counted around Engine.InferContext alone, over the last 10 of 12
// binaries) grows the table by about 960 symbols — fewer than the
// binary's roughly 1000 procedure names — and 2500 derived type
// variables per program; the first binary adds about 1150 and 3250.
// For a service inferring an unbounded stream of distinct programs,
// run batches in separate processes to bound table growth.
func Infer(prog *Program, cfg *Config) *Result {
	res, err := InferContext(context.Background(), prog, cfg)
	if err != nil {
		// Background is never cancelled; the error is an *AnalysisError
		// or *LimitError, re-raised under the legacy contract.
		panic(err)
	}
	return res
}

// InferContext is Infer under a context: cancellation and deadlines are
// observed cooperatively at task boundaries — the pipeline drains its
// worker pool and returns ctx.Err() instead of a partial result, and an
// already-cancelled context returns before any worker spawns. A panic
// inside an analysis task is contained and returned as a structured
// *AnalysisError; a program exceeding Config.MaxInstructions or
// MaxProcedures is rejected with a *LimitError. On any error no cache
// or session state of the failed run was published.
//
// It is Engine.InferContext on a fresh engine with sessions off: the
// run's memos are shared across its own procedures only, and nothing
// is retained once it returns.
func InferContext(ctx context.Context, prog *Program, cfg *Config) (*Result, error) {
	return NewEngine(&EngineOptions{DisableSessions: true}).InferContext(ctx, prog, cfg)
}

// solverOptions maps the public Config knobs onto solver.Options.
func solverOptions(cfg *Config) solver.Options {
	opts := solver.DefaultOptions()
	opts.Absint = absint.Options{MonomorphicCalls: cfg.Monomorphic}
	opts.NoSpecialize = cfg.NoSpecialize
	opts.Workers = cfg.Workers
	opts.NoSchemeCache = cfg.NoSchemeCache
	opts.NoShapeCache = cfg.NoShapeCache
	opts.NoBodyDedup = cfg.NoBodyDedup
	opts.MaxInstructions = cfg.MaxInstructions
	opts.MaxProcedures = cfg.MaxProcedures
	if cfg.MaxSketchDepth > 0 {
		opts.MaxSketchDepth = cfg.MaxSketchDepth
	}
	return opts
}

// ProcNames lists the program's procedures, sorted. The list is sorted
// once per Result; each call returns a fresh copy the caller may keep
// or modify.
func (r *Result) ProcNames() []string {
	r.namesOnce.Do(func() {
		r.names = make([]string, 0, len(r.inner.Procs))
		for n := range r.inner.Procs {
			r.names = append(r.names, n)
		}
		sort.Strings(r.names)
	})
	return slices.Clone(r.names)
}

// Scheme returns the inferred polymorphic type scheme for proc.
func (r *Result) Scheme(proc string) *Scheme {
	if p, ok := r.inner.Procs[proc]; ok {
		return p.Scheme
	}
	return nil
}

// ProcSketch returns the solved sketch of proc's type variable.
func (r *Result) ProcSketch(proc string) *Sketch {
	if p, ok := r.inner.Procs[proc]; ok {
		return p.Sketch
	}
	return nil
}

// ParamSketch returns the (specialized, if available) sketch of the
// idx-th formal parameter.
func (r *Result) ParamSketch(proc string, idx int) (*Sketch, bool) {
	p, ok := r.inner.Procs[proc]
	if !ok || idx >= len(p.FormalIns) {
		return nil, false
	}
	return p.InSketch(p.FormalIns[idx].ParamName())
}

// Signature renders proc's C signature through the display policies of
// §4.3. Recursive struct types are named Struct_0, Struct_1, ... in the
// order this Result's Signature calls first create them, so a struct's
// name depends on which signatures were rendered before it.
func (r *Result) Signature(proc string) *Signature {
	p, ok := r.inner.Procs[proc]
	if !ok {
		return nil
	}
	r.convMu.Lock()
	defer r.convMu.Unlock()
	sig := &Signature{Name: proc}
	if len(p.FormalIns) > 0 {
		sig.Params = make([]ctype.Param, len(p.FormalIns))
	}
	for i, l := range p.FormalIns {
		loc := l.ParamName()
		var t *CType
		if sk, st, ok := p.InState(loc); ok {
			t = r.conv.ParamFromState(sk, st)
		} else {
			t = ctype.Unknown()
		}
		sig.Params[i] = ctype.Param{Loc: loc, Type: t}
	}
	if !p.HasOut {
		sig.Ret = ctype.Prim("void")
	} else if sk, st, ok := p.OutState(); ok {
		sig.Ret = r.conv.FromState(sk, st)
	} else {
		sig.Ret = ctype.Unknown()
	}
	return sig
}

// Typedefs returns the named struct typedefs created so far while
// rendering signatures (recursive types, Figure 2's Struct_0), in
// Struct_N order.
func (r *Result) Typedefs() []*CType {
	r.convMu.Lock()
	defer r.convMu.Unlock()
	return slices.Clone(r.conv.Structs)
}

// NumParams reports the number of recovered formal parameters.
func (r *Result) NumParams(proc string) int {
	if p, ok := r.inner.Procs[proc]; ok {
		return len(p.FormalIns)
	}
	return 0
}

// ParamLocs lists the recovered formal parameter locations.
func (r *Result) ParamLocs(proc string) []string {
	p, ok := r.inner.Procs[proc]
	if !ok {
		return nil
	}
	var out []string
	for _, l := range p.FormalIns {
		out = append(out, l.ParamName())
	}
	return out
}

// HasOut reports whether proc returns a value.
func (r *Result) HasOut(proc string) bool {
	if p, ok := r.inner.Procs[proc]; ok {
		return p.HasOut
	}
	return false
}

// IsConstParam reports whether the const-recovery policy (Example 4.1)
// annotates the idx-th parameter: a pointer loaded through but never
// stored through.
func (r *Result) IsConstParam(proc string, idx int) bool {
	sk, ok := r.ParamSketch(proc, idx)
	if !ok {
		return false
	}
	hasLoad := sk.Accepts(label.Word{label.Load()})
	hasStore := sk.Accepts(label.Word{label.Store()})
	return hasLoad && !hasStore
}

// Report renders a human-readable summary of all inferred types.
func (r *Result) Report() string {
	var b strings.Builder
	for _, name := range r.ProcNames() {
		fmt.Fprintf(&b, "%s\n", r.Signature(name))
		fmt.Fprintf(&b, "  scheme: %s\n", r.Scheme(name))
	}
	if ts := r.Typedefs(); len(ts) > 0 {
		b.WriteString("\ntypedefs:\n")
		for _, t := range ts {
			fmt.Fprintf(&b, "  %s;\n", t)
		}
	}
	return b.String()
}

// CacheStats reports the effectiveness of the three memo layers for
// one Infer call (body → scheme → sketch; see docs/ARCHITECTURE.md).
// All fields of a disabled layer are zero.
type CacheStats struct {
	// SchemeHits/SchemeMisses count scheme-simplification memo lookups
	// (pgraph.SimplifyCache).
	SchemeHits, SchemeMisses uint64
	// ShapeHits/ShapeMisses count phase-2 sketch memo lookups
	// (sketch.ShapeCache).
	ShapeHits, ShapeMisses uint64
	// BodyDedupHits counts procedures served by whole-body
	// deduplication (constraint generation skipped entirely);
	// BodyDedupMisses counts fingerprinted procedures that ran the
	// full path.
	BodyDedupHits, BodyDedupMisses uint64
	// BodyDedupCrossHits counts procedures served from the engine's
	// persistent body-class table — results published by an earlier run
	// of the same engine (or carried in by LoadCache), possibly over a
	// different program. In-program duplicates of such a procedure are
	// also served from the table, so a fully warm run reports all its
	// serves here and none in BodyDedupHits.
	BodyDedupCrossHits uint64
	// ReplayedProcs and RecomputedProcs report incremental re-analysis
	// (Engine.Reanalyze): procedures replayed verbatim from the
	// previous session versus procedures recomputed because their body
	// — or a transitive callee's, or their SCC membership — changed.
	// Both zero for non-incremental runs.
	ReplayedProcs, RecomputedProcs uint64
}

// CacheStats reports the effectiveness of the scheme, shape, and
// body-dedup memo layers for this Infer call.
func (r *Result) CacheStats() CacheStats {
	return CacheStats{
		SchemeHits:         r.inner.SchemeCacheHits,
		SchemeMisses:       r.inner.SchemeCacheMisses,
		ShapeHits:          r.inner.ShapeCacheHits,
		ShapeMisses:        r.inner.ShapeCacheMisses,
		BodyDedupHits:      r.inner.BodyDedupHits,
		BodyDedupMisses:    r.inner.BodyDedupMisses,
		BodyDedupCrossHits: r.inner.BodyDedupCrossHits,
		ReplayedProcs:      r.inner.ReplayedProcs,
		RecomputedProcs:    r.inner.RecomputedProcs,
	}
}

// Internal accessor for the evaluation harness.
func (r *Result) Solver() *solver.Result { return r.inner }
