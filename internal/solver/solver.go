// Package solver orchestrates whole-program type inference
// (Noonan et al., PLDI 2016, §4.2 and Appendix F) as a staged,
// concurrent scheduling pipeline:
//
//  1. InferProcTypes (F.1): traverse the call graph's strongly
//     connected components bottom-up; generate constraints for each
//     SCC with callee schemes instantiated at callsites; simplify the
//     SCC constraint set relative to each member procedure to obtain
//     its polymorphic type scheme. Scheduling is per-SCC readiness
//     (see schedule.go): each SCC counts its unfinished callee SCCs,
//     workers pull ready SCCs from a work-stealing pool (conc.RunPool)
//     and a completed SCC signals its callers — no level barrier, so a
//     straggler only blocks its true ancestors. Simplification — the
//     dominant cost on realistic corpora — is memoized through a
//     fingerprint-keyed LRU (pgraph.SimplifyCache), so duplicate leaf
//     procedures are simplified once.
//  2. InferTypes (F.2): solve each procedure's constraint set into
//     sketches (shape inference + lattice-bound decoration). A
//     procedure's F.2 becomes ready the moment its own F.1 scheme is
//     published, so sketch solving of finished subtrees overlaps
//     scheme inference still running above them; the callsite-actual
//     sketches it observes are funneled into an accumulator and joined
//     in a canonical order (callee, location, caller, callsite) so the
//     result does not depend on scheduling. Like F.1, this phase is
//     memoized: a fingerprint-keyed LRU (sketch.ShapeCache) serves
//     sealed, immutable decorated sketches to procedures whose
//     constraint sets are isomorphic to one already solved, skipping
//     Build+Saturate+shape inference entirely on a hit.
//  3. RefineParameters (F.3): specialize each procedure's formal
//     sketches with the join of the actual sketches observed at its
//     callsites, trading generality for types closer to the source
//     (Example 4.3 / G.1). Procedures are processed in sorted name
//     order, again fanned out per procedure.
//
// Every phase is deterministic: for a fixed program and options the
// pipeline produces byte-identical schemes and specialized sketches
// regardless of Options.Workers, of steal order, and of task timing —
// an invariant the schedule-perturbation suite drives adversarially
// (internal/schedtest).
//
// Two allocation-discipline layers keep the pipeline off the garbage
// collector's hot path (see docs/ARCHITECTURE.md): derived type
// variables are interned handles (internal/intern) so constraint sets,
// graph nodes and shape classes index by dense ids instead of rendered
// strings, and the per-SCC constraint graphs plus per-procedure shape
// builders are drawn from sync.Pools (pgraph.Graph.Release,
// sketch.Builder.Release) so the fan-out reuses their storage across
// procedures. Pooled scratch never escapes into results: sketches
// share no storage with the Builder that extracted them, and
// cache-served sketches are sealed (immutable) besides.
package solver

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/constraints"
	"retypd/internal/label"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Options configures the pipeline.
type Options struct {
	// Absint configures constraint generation; the zero value is the
	// paper-faithful configuration.
	Absint absint.Options
	// MaxSketchDepth truncates sketch recursion when ≥ 0 (used by the
	// TIE-style baseline, which lacks recursive types); -1 means
	// unbounded.
	MaxSketchDepth int
	// NoSpecialize disables the F.3 parameter-refinement pass.
	NoSpecialize bool
	// KeepIntermediates retains per-procedure constraint sets and
	// shapes in the result (tests and the CLI want them; the scaling
	// harness does not).
	KeepIntermediates bool
	// Workers bounds the concurrency of every pipeline phase: 1 runs
	// fully sequentially on the calling goroutine, values ≤ 0 use one
	// worker per available CPU. Output is identical for every value.
	Workers int
	// SchemeCache memoizes scheme simplification across procedures
	// with isomorphic constraint sets (and across Infer calls when the
	// caller shares one cache). Nil gives this Infer call a private
	// cache; set NoSchemeCache to disable memoization entirely.
	SchemeCache *pgraph.SimplifyCache
	// NoSchemeCache disables the simplification memo.
	NoSchemeCache bool
	// ShapeCache memoizes phase-2 sketch solving (shape quotient +
	// lattice decoration) across procedures with isomorphic constraint
	// sets, keyed by the same canonical fingerprints as SchemeCache.
	// On a hit F.2 skips Build+Saturate+NewBuilder+Decorate entirely
	// and serves a sealed, immutable sketch. Nil gives this Infer call
	// a private cache; set NoShapeCache to disable.
	ShapeCache *sketch.ShapeCache
	// NoShapeCache disables the shape memo.
	NoShapeCache bool
	// NoBodyDedup disables the earliest memo layer: whole-procedure
	// body deduplication ahead of abstract interpretation (see
	// internal/bodyfp and dedup.go). With it off, every procedure runs
	// constraint generation and the per-procedure cache lookups even
	// when its body is equivalent to one already processed. The layer
	// never changes output — only how often the front end runs — and is
	// automatically off when Absint.Covered is set (trace-restricted
	// generation distinguishes procedures by name).
	NoBodyDedup bool
	// MaxInstructions and MaxProcedures are admission guards: a program
	// exceeding either bound is rejected with a *LimitError before any
	// pipeline work — or goroutine — starts. 0 means unlimited. They
	// exist for multi-tenant callers that must bound the cost of one
	// analysis unit; they never change output for admitted programs.
	MaxInstructions int
	MaxProcedures   int
	// SchedHooks perturbs and observes the work-stealing executor's
	// scheduling (delays, steal-order bias, per-task fault injection via
	// BeforeTask). Test-only: the determinism suite sets it to prove
	// output invariance under adversarial schedules and the
	// fault-injection harness (internal/faultinject) rides it to kill or
	// stall chosen tasks; production callers leave it nil. Never part of
	// output, never compared across runs.
	SchedHooks *conc.SchedHooks
	// ctx is the run's cancellation context, set by InferContext (nil
	// means context.Background()). Unexported: cancellation enters
	// through the context-aware entry points, never as an ad-hoc knob.
	ctx context.Context
	// bodyCache is the engine-scoped body-class table (nil for one-shot
	// Infer calls, which get a run-private table). Unexported: the only
	// way to share body classes across runs is through an Engine, whose
	// persistence carries the table's invariants along.
	bodyCache *bodyCache
	// schedTrace observes readiness-scheduler events (see schedEvent).
	// Test-only, like schedHooks: the property tests record the event
	// stream to check exactly-once execution and dependency ordering.
	// Called concurrently from worker goroutines; implementations must
	// synchronize. Never part of output.
	schedTrace func(schedEvent)
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{MaxSketchDepth: -1, KeepIntermediates: true}
}

// ProcResult collects everything inferred for one procedure.
type ProcResult struct {
	Name      string
	FormalIns []cfg.Loc
	HasOut    bool
	// Scheme is the simplified polymorphic type scheme (Def. 3.4).
	Scheme *constraints.Scheme
	// Sketch is the solved sketch of the procedure's type variable;
	// formal-in and out sketches hang off it under in_*/out_* edges.
	Sketch *sketch.Sketch
	// SpecializedIns maps formal location names to the F.3-refined
	// parameter sketches (nil when no callsite evidence exists).
	SpecializedIns map[string]*sketch.Sketch
	// raw is the generated (unsimplified) constraint set, kept when
	// Options.KeepIntermediates is set; rawDeferred stands in for it on
	// procedures served by body dedup. Read both through Constraints.
	raw         *constraints.Set
	rawDeferred *absint.Deferred
}

// Constraints returns the generated (unsimplified) constraint set, kept
// when Options.KeepIntermediates is set (nil otherwise). A procedure
// served by body dedup holds its source's set and rename surgery
// instead and translates them on the first call, which is when the
// procedure's own variable names are interned; every caller, on any
// goroutine, gets the same set.
func (pr *ProcResult) Constraints() *constraints.Set {
	if pr.rawDeferred != nil {
		return pr.rawDeferred.Set()
	}
	return pr.raw
}

// InSketch returns the sketch of the formal at location name
// (specialized if available, otherwise the subtree of Sketch).
func (pr *ProcResult) InSketch(loc string) (*sketch.Sketch, bool) {
	if sk, ok := pr.SpecializedIns[loc]; ok && sk != nil {
		return sk, true
	}
	if pr.Sketch == nil {
		return nil, false
	}
	return pr.Sketch.Descend(label.Word{label.In(loc)})
}

// OutSketch returns the sketch of the return value.
func (pr *ProcResult) OutSketch() (*sketch.Sketch, bool) {
	if pr.Sketch == nil {
		return nil, false
	}
	return pr.Sketch.Descend(label.Word{label.Out("eax")})
}

// Result is the whole-program inference result.
type Result struct {
	Prog  *asm.Program
	Lat   *lattice.Lattice
	Infos map[string]*cfg.ProcInfo
	Procs map[string]*ProcResult
	// SCCs is the bottom-up SCC order used.
	SCCs [][]string
	// SchemeCacheHits and SchemeCacheMisses report the simplification
	// memo's effectiveness for this run (both zero when disabled).
	SchemeCacheHits, SchemeCacheMisses uint64
	// ShapeCacheHits and ShapeCacheMisses report the phase-2 shape
	// memo's effectiveness for this run (both zero when disabled).
	ShapeCacheHits, ShapeCacheMisses uint64
	// BodyDedupHits counts procedures served by whole-body
	// deduplication from a representative of the same run (they skipped
	// constraint generation entirely); BodyDedupCrossHits counts
	// procedures served from a stored body entry of the engine's
	// persistent class table — published by an earlier run, possibly of
	// a different program, possibly in a different process;
	// BodyDedupMisses counts fingerprinted procedures that ran the full
	// path (class representatives and excluded members). All zero when
	// the layer is disabled.
	BodyDedupHits, BodyDedupCrossHits, BodyDedupMisses uint64
	// ReplayedProcs and RecomputedProcs report incremental re-analysis
	// (Engine.Reanalyze): procedures replayed verbatim from the
	// previous session versus procedures that went through the full
	// pipeline because their body — or a transitive callee's — changed.
	// Both zero for non-incremental runs.
	ReplayedProcs, RecomputedProcs uint64
}

// Infer runs the full pipeline. It cannot be cancelled; a task panic —
// contained into an *AnalysisError by the scheduler — is re-raised.
// Cancellable, error-returning callers use InferContext.
func Infer(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) *Result {
	res, err := InferContext(context.Background(), prog, lat, sums, opts)
	if err != nil {
		// Background is never cancelled, so err is an *AnalysisError or
		// a *LimitError; the legacy contract surfaces both as panics.
		panic(err)
	}
	return res
}

// InferContext runs the full pipeline under ctx. Cancellation is
// cooperative, observed at task boundaries: the pipeline stops handing
// out tasks, drains its pool, and returns ctx.Err() — an
// already-cancelled ctx returns before any worker is spawned. A task
// panic is contained by the scheduler and returned as a structured
// *AnalysisError; inputs exceeding Options.MaxInstructions /
// MaxProcedures are rejected with a *LimitError. In every error case
// nothing was published: shared caches hold only completed computes and
// the returned Result is nil.
func InferContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (*Result, error) {
	opts.ctx = ctx
	res, _, err := infer(prog, lat, sums, opts, nil, nil, nil)
	return res, err
}

// admit applies the admission guards to prog. It runs before the
// pipeline allocates anything, so a rejected program costs no goroutine
// and touches no cache.
func admit(prog *asm.Program, opts Options) error {
	if opts.MaxProcedures > 0 && len(prog.Procs) > opts.MaxProcedures {
		return &LimitError{What: "procedures", Limit: opts.MaxProcedures, Actual: len(prog.Procs)}
	}
	if opts.MaxInstructions > 0 {
		if n := prog.NumInsts(); n > opts.MaxInstructions {
			return &LimitError{What: "instructions", Limit: opts.MaxInstructions, Actual: n}
		}
	}
	return nil
}

// infer is the pipeline entry shared by Infer and the engine. infos and
// cg may be pre-computed (Reanalyze rebases unchanged per-procedure
// analyses); inc, when non-nil, switches the run into incremental mode:
// procedures outside inc.dirty are replayed from their session
// snapshots instead of re-solved. The returned artifacts carry the
// per-procedure outputs the engine records into its next session.
//
// On error the partially-built Result is discarded (nil, nil, err):
// admission guards reject before any work, cancellation surfaces as
// ctx.Err(), and a contained task panic as *AnalysisError. Shared
// caches are safe in every case — they only ever store completed
// computes, and their single-flight entries release waiters on panic.
func infer(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options,
	infos map[string]*cfg.ProcInfo, cg *cfg.CallGraph, inc *incrementalPlan) (*Result, *runArtifacts, error) {
	ctx := opts.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := admit(prog, opts); err != nil {
		return nil, nil, err
	}
	if sums == nil {
		sums = summaries.Default()
	}
	if cg == nil {
		cg = cfg.BuildCallGraph(prog)
	}
	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}

	res := &Result{
		Prog:  prog,
		Lat:   lat,
		Procs: map[string]*ProcResult{},
		SCCs:  cg.SCCs,
	}

	// NoSchemeCache/NoShapeCache win over a provided cache: callers
	// measuring the uncached baseline must actually get one.
	cache := opts.SchemeCache
	if opts.NoSchemeCache {
		cache = nil
	} else if cache == nil {
		cache = pgraph.NewSimplifyCache(0)
	}
	shapeCache := opts.ShapeCache
	if opts.NoShapeCache {
		shapeCache = nil
	} else if shapeCache == nil {
		shapeCache = sketch.NewShapeCache(0)
	}

	// The run context is cancelled when any task faults, so a contained
	// panic drains the pool promptly instead of letting unrelated
	// subtrees finish work whose results will be discarded.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	pl := &pipeline{
		lat:        lat,
		infos:      infos,
		sums:       sums,
		isConst:    isConst,
		opts:       opts,
		cache:      cache,
		shapeCache: shapeCache,
		workers:    conc.Limit(opts.Workers),
		inc:        inc,
		ctx:        runCtx,
		cancelRun:  cancelRun,
	}
	pl.initIndex(cg)
	if inc == nil && !opts.NoBodyDedup && opts.Absint.Covered == nil {
		// Body dedup is skipped in incremental mode: the dirty set is
		// small by construction, and dedup classification needs whole
		// levels. Output is identical either way (golden-tested).
		bodies := opts.bodyCache
		if bodies == nil {
			bodies = newBodyCache() // one-shot Infer: run-private table
		}
		pl.dedup = newDedupState(lat, opts, sums, isConst, bodies)
	}
	if inc != nil {
		// Clean procedures replay their previous schemes; publish them
		// before any task runs so dirty callers see every callee.
		for p, snap := range inc.replay {
			pl.schemes[pl.procIdx[p]] = snap.scheme
		}
	}

	var hits0, misses0, shapeHits0, shapeMisses0 uint64
	if cache != nil {
		hits0, misses0 = cache.Stats() // snapshot: report this run's delta
	}
	if shapeCache != nil {
		shapeHits0, shapeMisses0 = shapeCache.Stats()
	}

	// Phases 1+2 (F.1/F.2), overlapped on the readiness graph: the
	// dedup classification pre-pass pins class representatives
	// deterministically, then every SCC's scheme inference and every
	// procedure's sketch solving run as readiness-gated tasks on the
	// work-stealing pool. Each phase's error is resolved through
	// pl.finish: a recorded task fault (*AnalysisError) wins over the
	// cancellation it triggered.
	var plans []*memberPlan
	if pl.dedup != nil {
		var err error
		plans, err = pl.classifyBodies(cg)
		if err = pl.finish(err); err != nil {
			return nil, nil, err
		}
	} else {
		plans = make([]*memberPlan, len(cg.SCCs))
	}
	// The per-procedure CFG analyses run *after* classification (the
	// fingerprint needs only the raw instruction stream), so duplicate
	// bodies are served their analyses like they are served schemes:
	// each class's first in-program occurrence pays cfg.Analyze, later
	// identically-registered members rebase it (CloneForProgram).
	if infos == nil {
		infos = pl.buildInfos(prog)
	}
	pl.infos = infos
	res.Infos = infos
	if inc != nil {
		pl.replayClean()
		if err := pl.finish(nil); err != nil {
			return nil, nil, err
		}
	}
	if err := pl.finish(pl.buildSched(cg, plans).run()); err != nil {
		return nil, nil, err
	}
	// Phase 3 (F.3): the sequential actuals join and the per-procedure
	// refinement fan-out, both under the same containment.
	var actuals map[actualKey]*sketch.Sketch
	pl.runGuarded("F.3", -1, "", func() { actuals = pl.collectActuals(res) })
	if err := pl.finish(nil); err != nil {
		return nil, nil, err
	}
	if err := pl.finish(pl.refineParameters(res, actuals)); err != nil {
		return nil, nil, err
	}

	if cache != nil {
		h, m := cache.Stats()
		res.SchemeCacheHits, res.SchemeCacheMisses = h-hits0, m-misses0
	}
	if shapeCache != nil {
		h, m := shapeCache.Stats()
		res.ShapeCacheHits, res.ShapeCacheMisses = h-shapeHits0, m-shapeMisses0
	}
	if pl.dedup != nil {
		res.BodyDedupHits, res.BodyDedupMisses = pl.dedup.hits.Load(), pl.dedup.misses.Load()
		res.BodyDedupCrossHits = pl.dedup.crossHits.Load()
		// Publish only now, after every phase succeeded: entries must
		// never expose results of a faulted or cancelled run.
		pl.dedup.publish(pl, prog)
	}
	if inc != nil {
		for _, p := range pl.order {
			if inc.dirty[p] {
				res.RecomputedProcs++
			} else {
				res.ReplayedProcs++
			}
		}
	}
	return res, &runArtifacts{cg: cg, order: pl.order, prs: pl.prs, obs: pl.obs}, nil
}

// replayClean fills the F.2 slots of every clean procedure of an
// incremental run from its session snapshot. A replay only copies
// pointers, so it runs inline rather than as a pool task, but still
// under runGuarded as an F.2 item (hooks and faults see it like any
// other F.2 task); the first fault stops the loop.
func (pl *pipeline) replayClean() {
	for pi, p := range pl.order {
		if pl.inc.dirty[p] {
			continue
		}
		if !pl.runGuarded("F.2", -1, p, func() { pl.prs[pi], pl.obs[pi] = pl.replayProc(p) }) {
			return
		}
	}
}

// runArtifacts carries the per-procedure outputs of one pipeline run in
// canonical order, for the engine's session recording.
type runArtifacts struct {
	cg    *cfg.CallGraph
	order []string
	prs   []*ProcResult
	obs   [][]actualObs
}

// incrementalPlan tells a pipeline run which procedures changed since
// the engine's previous session. dirty covers every procedure of the
// new program; replay maps each clean procedure to its snapshot from
// the previous run. The plan's construction (Engine.Reanalyze)
// guarantees the replay soundness invariant: a clean procedure's
// transitive callees are all clean, so its previous scheme, sketch and
// callsite observations are byte-identical to what a from-scratch run
// would compute.
type incrementalPlan struct {
	dirty  map[string]bool
	replay map[string]*procSnap
}

// pipeline carries the shared read-mostly state of one Infer run.
type pipeline struct {
	lat        *lattice.Lattice
	infos      map[string]*cfg.ProcInfo
	sums       summaries.Table
	isConst    func(constraints.Var) bool
	opts       Options
	cache      *pgraph.SimplifyCache
	shapeCache *sketch.ShapeCache
	workers    int

	// ctx is the run context (the caller's ctx wrapped in a cancel);
	// cancelRun cancels it. The first task fault records itself in ferr
	// under failMu and then calls cancelRun — in that order, so by the
	// time any phase observes the cancellation the structured error is
	// already readable.
	ctx       context.Context
	cancelRun context.CancelFunc
	failMu    sync.Mutex
	ferr      *AnalysisError

	// order is the canonical procedure order (top-down SCC order,
	// members in SCC slice order); procIdx its inverse. Both are frozen
	// before scheduling and read-only afterwards; every per-procedure
	// slice below is indexed by procIdx.
	order   []string
	procIdx map[string]int

	// schemes, gens and fps are per-procedure slots written exactly
	// once, by the owning SCC's F.1 task, and read only by tasks the
	// readiness graph orders after that write (caller SCCs' F.1, the
	// procedure's own F.2, members translating a representative) — so
	// concurrent tasks touch disjoint elements and a shared map's
	// write/read races cannot arise. fps carries the constraint-set
	// fingerprint of each single-member SCC forward so Phase 2 need not
	// recompute it (a multi-member SCC's members have per-procedure
	// sets that differ from the SCC union, so those are fingerprinted
	// in Phase 2).
	schemes []*constraints.Scheme
	gens    []*absint.Result
	fps     []*pgraph.FP

	// memberOf marks procedures served by body-dedup translation: set
	// by the member's own F.1 task when the scheme surgery succeeds,
	// read by its F.2 task (ordered after F.1 by the readiness graph).
	memberOf []*memberPlan

	// dedup is the whole-body deduplication layer (nil when disabled).
	// Its class tables are written only in the sequential
	// classification pre-pass (classifyBodies); during scheduling the
	// tasks touch nothing but its atomic hit/miss counters.
	dedup *dedupState

	// inc is the incremental plan of a Reanalyze run (nil for full
	// runs): clean SCCs' schemes are pre-published and their procedures
	// replay their snapshots (replayClean); only dirty SCCs ride the
	// readiness graph.
	inc *incrementalPlan

	// prs and obs are the phase-2 outputs, parallel to order, retained
	// for the engine's session recording.
	prs []*ProcResult
	obs [][]actualObs
}

// initIndex freezes the canonical procedure order and sizes every
// per-procedure slot slice.
func (pl *pipeline) initIndex(cg *cfg.CallGraph) {
	for i := len(cg.SCCs) - 1; i >= 0; i-- {
		pl.order = append(pl.order, cg.SCCs[i]...)
	}
	n := len(pl.order)
	pl.procIdx = make(map[string]int, n)
	for i, p := range pl.order {
		pl.procIdx[p] = i
	}
	pl.schemes = make([]*constraints.Scheme, n)
	pl.gens = make([]*absint.Result, n)
	pl.fps = make([]*pgraph.FP, n)
	pl.memberOf = make([]*memberPlan, n)
	pl.prs = make([]*ProcResult, n)
	pl.obs = make([][]actualObs, n)
}

// buildInfos runs the per-procedure CFG analyses for prog — the work
// cfg.AnalyzeProgram does — but serves body-dedup members their class
// anchor's analyses by rebasing (cfg.ProcInfo.CloneForProgram) when the
// member's register assignment is identical, then completes the
// interprocedural HasOut fixpoint over the mixed set. Each class's
// first in-program occurrence always pays the real cfg.Analyze (every
// procedure needs a ProcInfo regardless of how its schemes are
// served); the fan-out is deterministic per procedure, so worker count
// never reaches output.
func (pl *pipeline) buildInfos(prog *asm.Program) map[string]*cfg.ProcInfo {
	var cloneFrom map[string]string
	if pl.dedup != nil {
		cloneFrom = pl.dedup.cloneFrom
	}
	fresh := make([]*asm.Proc, 0, len(prog.Procs))
	for _, p := range prog.Procs {
		if _, ok := cloneFrom[p.Name]; !ok {
			fresh = append(fresh, p)
		}
	}
	analyzed := make([]*cfg.ProcInfo, len(fresh))
	conc.ForEach(pl.workers, len(fresh), func(i int) {
		analyzed[i] = cfg.Analyze(prog, fresh[i])
	})
	infos := make(map[string]*cfg.ProcInfo, len(prog.Procs))
	for i, p := range fresh {
		infos[p.Name] = analyzed[i]
	}
	for _, p := range prog.Procs {
		if a, ok := cloneFrom[p.Name]; ok {
			infos[p.Name] = infos[a].CloneForProgram(prog, p)
		}
	}
	cfg.FinishHasOut(infos)
	return infos
}

// fail records a task fault (first one wins) and cancels the run
// context so every pool drains at its next task boundary.
func (pl *pipeline) fail(phase string, scc int, proc string, value any, stack []byte) {
	pl.failMu.Lock()
	if pl.ferr == nil {
		pl.ferr = &AnalysisError{Phase: phase, SCC: scc, Proc: proc, Value: value, Stack: stack}
	}
	pl.failMu.Unlock()
	pl.cancelRun()
}

// failed returns the run's recorded fault, if any.
func (pl *pipeline) failed() *AnalysisError {
	pl.failMu.Lock()
	defer pl.failMu.Unlock()
	return pl.ferr
}

// finish resolves one phase's outcome into the run's authoritative
// error: a recorded task fault wins over the pool cancellation it
// triggered (phaseErr is then the run context's Canceled); otherwise
// the phase error — the caller's own cancellation or deadline — stands.
func (pl *pipeline) finish(phaseErr error) error {
	if e := pl.failed(); e != nil {
		return e
	}
	return phaseErr
}

// runGuarded is the pipeline's panic containment: every identified task
// body — F.0 classification items, F.1 scheme inference, F.2 sketch
// solving, F.3 refinement items — runs inside it. A panic (from the
// task or from an injected SchedHooks.BeforeTask hook, which runs in
// the same scope precisely so injected faults surface with the task's
// identity) is converted into the run's *AnalysisError and cancels the
// run; it never crosses a goroutine boundary raw. ok reports whether f
// completed, so schedulers signal dependents only for real results.
func (pl *pipeline) runGuarded(phase string, scc int, proc string, f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			pl.fail(phase, scc, proc, r, debug.Stack())
		}
	}()
	if h := pl.opts.SchedHooks; h != nil && h.BeforeTask != nil {
		name := proc
		if name == "" && scc >= 0 {
			name = fmt.Sprintf("scc=%d", scc)
		}
		h.BeforeTask(phase, name)
	}
	f()
	return true
}

// schemeOf resolves a procedure's published scheme (the absint
// SchemeLookup of this run): nil for unknown names and for procedures
// whose F.1 has not been signalled to the caller — which, under the
// readiness graph, is exactly the same-SCC case the monomorphic link
// is the correct treatment for.
func (pl *pipeline) schemeOf(name string) *constraints.Scheme {
	i, ok := pl.procIdx[name]
	if !ok {
		return nil
	}
	return pl.schemes[i]
}

// publishSCC stores one SCC's F.1 outputs into the per-procedure slots.
func (pl *pipeline) publishSCC(scc []string, out *sccResult) {
	for j, p := range scc {
		i := pl.procIdx[p]
		pl.gens[i] = out.gens[j]
		pl.schemes[i] = out.schemes[j]
		if out.fp != nil {
			pl.fps[i] = out.fp
		}
	}
}

// runMemberF1 serves a dedup member's F.1 by translating its source's
// scheme — the stored body entry's for cross-program serves, the
// in-program representative's published one otherwise; when the rename
// surgery cannot classify a variable it falls back to the full path
// (any leftover F.2 gate on a representative then only delays, never
// blocks).
func (pl *pipeline) runMemberF1(p string, plan *memberPlan) {
	i := pl.procIdx[p]
	var sc *constraints.Scheme
	ok := false
	if plan.entry != nil {
		sc, ok = plan.ren.TranslateScheme(plan.entry.scheme)
	} else if rep := pl.schemeOf(plan.rep); rep != nil {
		sc, ok = plan.ren.TranslateScheme(rep)
	}
	if !ok {
		pl.publishSCC([]string{p}, pl.inferSCC([]string{p}))
		pl.dedup.misses.Add(1)
		return
	}
	pl.schemes[i] = sc
	pl.memberOf[i] = plan
	if plan.entry != nil {
		pl.dedup.crossHits.Add(1)
	} else {
		pl.dedup.hits.Add(1)
	}
}

// sccResult is the output of scheme inference for one SCC.
type sccResult struct {
	gens    []*absint.Result      // parallel to the SCC's member slice
	schemes []*constraints.Scheme // likewise
	// fp is the SCC constraint set's fingerprint, carried forward to
	// Phase 2 for single-member SCCs (where the SCC set and the
	// member's generated set coincide).
	fp *pgraph.FP
}

// inferSCC generates constraints for every member of one SCC and
// simplifies the SCC set relative to each member (its type scheme).
func (pl *pipeline) inferSCC(scc []string) *sccResult {
	out := &sccResult{
		gens:    make([]*absint.Result, len(scc)),
		schemes: make([]*constraints.Scheme, len(scc)),
	}
	var sccCs *constraints.Set
	if len(scc) == 1 {
		// The SCC union of a single member IS its generated set (same
		// contents, same order); reuse it instead of re-hashing every
		// constraint into a copy. Generate returns a fresh set, and the
		// pipeline only ever reads it afterwards.
		gr := absint.Generate(pl.infos[scc[0]], pl.infos, pl.schemeOf, pl.sums, pl.isConst, pl.opts.Absint)
		out.gens[0] = gr
		sccCs = gr.Constraints
	} else {
		sccCs = constraints.NewSet()
		for j, p := range scc {
			gr := absint.Generate(pl.infos[p], pl.infos, pl.schemeOf, pl.sums, pl.isConst, pl.opts.Absint)
			out.gens[j] = gr
			sccCs.InsertAll(gr.Constraints)
		}
	}

	// The saturated graph is shared by every member's simplification
	// and built at most once per SCC — not at all when every member
	// hits the memo — and recycled through the pgraph pool afterwards.
	var g *pgraph.Graph
	build := func() *pgraph.Graph {
		if g == nil {
			g = pgraph.Build(sccCs, pl.lat)
			g.Saturate()
		}
		return g
	}
	var fp *pgraph.FP
	if pl.cache != nil || (pl.shapeCache != nil && len(scc) == 1) {
		fp = pgraph.Fingerprint(sccCs, pl.lat)
	}
	if len(scc) == 1 && pl.shapeCache != nil {
		// A single-member SCC's constraint set IS the member's generated
		// set (same contents, same insertion order), so its fingerprint —
		// including the rename map — is reusable by the Phase-2 shape
		// memo without recomputation.
		out.fp = fp
	}
	for j, p := range scc {
		root := constraints.Var(p)
		var simp *pgraph.SimplifyResult
		if pl.cache != nil {
			simp = pl.cache.Simplify(fp, root, build)
		} else {
			simp = build().Simplify(func(v constraints.Var) bool { return v == root })
		}
		out.schemes[j] = &constraints.Scheme{
			Root:        root,
			Constraints: simp.Constraints,
			Existential: simp.Existential,
		}
	}
	if g != nil {
		g.Release()
	}
	return out
}

// actualKey identifies one callee formal for F.3 joining.
type actualKey struct{ callee, loc string }

// actualObs is one observed callsite-actual sketch, tagged with its
// origin so the join order can be canonicalized.
type actualObs struct {
	key    actualKey
	caller string
	inst   int
	sk     *sketch.Sketch
}

// collectActuals gathers the scheduled F.2 results: publish every
// procedure's result and join the callsite actuals per callee formal
// in a canonical order.
func (pl *pipeline) collectActuals(res *Result) map[actualKey]*sketch.Sketch {
	for i, p := range pl.order {
		res.Procs[p] = pl.prs[i]
	}

	// Deterministic accumulation: flatten and sort all observations by
	// (callee, location, caller, callsite) before joining, so the join
	// order per callee/param key is stable no matter which worker got
	// there first.
	if pl.opts.NoSpecialize {
		return nil
	}
	var all []actualObs
	for _, o := range pl.obs {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.key.callee != b.key.callee {
			return a.key.callee < b.key.callee
		}
		if a.key.loc != b.key.loc {
			return a.key.loc < b.key.loc
		}
		if a.caller != b.caller {
			return a.caller < b.caller
		}
		return a.inst < b.inst
	})
	actuals := map[actualKey]*sketch.Sketch{}
	for _, o := range all {
		if prev, ok := actuals[o.key]; ok {
			actuals[o.key] = prev.Join(o.sk)
		} else {
			actuals[o.key] = o.sk
		}
	}
	return actuals
}

// solveProc solves one procedure's sketch and records the actual
// sketches at its callsites for the callees' later refinement.
//
// Shape solving is memoized through pl.shapeCache: each requested
// variable's decorated sketch is looked up under the procedure's
// canonical constraint-set fingerprint, so a procedure isomorphic to
// one already solved never builds its shape quotient or saturates its
// constraint graph at all — the builder machinery below is constructed
// lazily, on the first cache miss.
func (pl *pipeline) solveProc(p string) (*ProcResult, []actualObs) {
	pi := pl.infos[p]
	idx := pl.procIdx[p]
	gr := pl.gens[idx]

	fp := pl.fps[idx]
	if fp == nil && pl.shapeCache != nil {
		fp = pgraph.Fingerprint(gr.Constraints, pl.lat)
	}

	// The shape Builder, constraint graph and Decorator are mutable
	// per-procedure scratch, drawn from their pools on the first miss
	// and recycled afterwards; sketches handed out of solve share no
	// storage with them (cache-served sketches are additionally sealed).
	var (
		shapes *sketch.Builder
		g      *pgraph.Graph
		dec    *sketch.Decorator
	)
	build := func(v constraints.Var) *sketch.Sketch {
		if shapes == nil {
			shapes = sketch.NewBuilder(gr.Constraints, pl.lat)
			g = pgraph.Build(gr.Constraints, pl.lat)
			dec = sketch.NewDecorator(g)
		}
		sk := shapes.SketchFor(v, pl.opts.MaxSketchDepth)
		dec.Decorate(sk, v)
		return sk
	}
	solve := func(v constraints.Var) *sketch.Sketch {
		if pl.shapeCache != nil {
			return pl.shapeCache.SketchFor(fp, v, pl.opts.MaxSketchDepth, build)
		}
		return build(v)
	}
	defer func() {
		if dec != nil {
			dec.Release()
		}
		if g != nil {
			g.Release()
		}
		if shapes != nil {
			shapes.Release()
		}
	}()

	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         pl.schemes[idx],
		Sketch:         solve(constraints.Var(p)),
		SpecializedIns: map[string]*sketch.Sketch{},
	}
	if pl.opts.KeepIntermediates {
		pr.raw = gr.Constraints
	}

	var obs []actualObs
	if !pl.opts.NoSpecialize {
		for _, call := range gr.Calls {
			ci, ok := pl.infos[call.Callee]
			if !ok {
				continue
			}
			rootSk := solve(call.Root)
			for _, l := range ci.FormalIns {
				if sub, ok := rootSk.Descend(label.Word{label.In(l.ParamName())}); ok {
					obs = append(obs, actualObs{
						key:    actualKey{call.Callee, l.ParamName()},
						caller: p,
						inst:   call.Inst,
						sk:     sub,
					})
				}
			}
		}
	}
	return pr, obs
}

// refineParameters is Phase 3 (F.3): refine formals with the joined
// observed actuals, per procedure in sorted name order. Items run under
// the run's panic containment and the fan-out observes the run context,
// so a fault or a cancellation stops the phase at an item boundary.
func (pl *pipeline) refineParameters(res *Result, actuals map[actualKey]*sketch.Sketch) error {
	if pl.opts.NoSpecialize {
		return nil
	}
	names := make([]string, 0, len(res.Procs))
	for n := range res.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return conc.ForEachCtx(pl.ctx, pl.workers, len(names), func(i int) {
		pl.runGuarded("F.3", -1, names[i], func() {
			pr := res.Procs[names[i]]
			for _, l := range pr.FormalIns {
				k := actualKey{names[i], l.ParamName()}
				joined, ok := actuals[k]
				if !ok {
					continue
				}
				if formal, ok := pr.Sketch.Descend(label.Word{label.In(l.ParamName())}); ok {
					pr.SpecializedIns[l.ParamName()] = formal.Meet(joined)
				} else {
					pr.SpecializedIns[l.ParamName()] = joined
				}
			}
		})
	})
}

// DumpSchemes renders all inferred schemes, sorted by name (CLI/test
// helper).
func (r *Result) DumpSchemes() string {
	var names []string
	for n := range r.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s:\n  %s\n", n, r.Procs[n].Scheme)
	}
	return b.String()
}

// DumpSpecialized renders every F.3-specialized parameter sketch,
// sorted by procedure and location (determinism tests and the CLI).
func (r *Result) DumpSpecialized() string {
	var names []string
	for n := range r.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		pr := r.Procs[n]
		var locs []string
		for loc := range pr.SpecializedIns {
			locs = append(locs, loc)
		}
		sort.Strings(locs)
		for _, loc := range locs {
			fmt.Fprintf(&b, "%s.%s:\n%s", n, loc, pr.SpecializedIns[loc])
		}
	}
	return b.String()
}
