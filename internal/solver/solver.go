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
	"retypd/internal/bodyfp"
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
	// Workers bounds the concurrency of every pipeline phase: 1 runs
	// fully sequentially on the calling goroutine, values ≤ 0 use one
	// worker per available CPU. Output is identical for every value.
	Workers int
	// NoSchemeCache bypasses the engine's scheme-simplification memo
	// (Engine.SchemeCache): every SCC is simplified from its saturated
	// graph, and the memo is neither read nor written.
	NoSchemeCache bool
	// NoShapeCache bypasses the engine's phase-2 shape memo
	// (Engine.ShapeCache), which otherwise serves a sealed, decorated
	// sketch to every procedure whose constraint set is isomorphic to
	// one already solved.
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
	// schedTrace observes readiness-scheduler events (see schedEvent).
	// Test-only, like schedHooks: the property tests record the event
	// stream to check exactly-once execution and dependency ordering.
	// Called concurrently from worker goroutines; implementations must
	// synchronize. Never part of output.
	schedTrace func(schedEvent)
}

// DefaultOptions returns the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{MaxSketchDepth: -1}
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

// InState locates what InSketch returns without materialising it: the
// specialized sketch and its root, or Sketch and the state its in_loc
// edge reaches; InSketch(loc) is the sub-sketch of sk rooted at st.
func (pr *ProcResult) InState(loc string) (sk *sketch.Sketch, st int, ok bool) {
	if sk, ok := pr.SpecializedIns[loc]; ok && sk != nil {
		return sk, 0, true
	}
	return pr.edgeState(label.In(loc))
}

// OutState is InState for the return value (OutSketch).
func (pr *ProcResult) OutState() (sk *sketch.Sketch, st int, ok bool) {
	return pr.edgeState(label.Out("eax"))
}

func (pr *ProcResult) edgeState(l label.Label) (*sketch.Sketch, int, bool) {
	if pr.Sketch == nil {
		return nil, 0, false
	}
	st := pr.Sketch.States[0].Lookup(l)
	return pr.Sketch, st, st >= 0
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
	// (Engine.ReanalyzeContext): procedures replayed verbatim from the
	// previous session versus procedures that went through the full
	// pipeline because their body — or a transitive callee's — changed.
	// Both zero for non-incremental runs.
	ReplayedProcs, RecomputedProcs uint64
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

// infer runs the pipeline on the engine's memos. inc, when non-nil,
// switches the run into incremental mode: the plan carries the call
// graph and the per-procedure analyses Reanalyze rebased, and
// procedures outside inc.dirty are replayed from their session
// snapshots instead of re-solved. The returned artifacts carry the
// per-procedure outputs the engine records into its next session.
//
// On error the partially-built Result is discarded (nil, nil, err):
// admission guards reject before any work, cancellation surfaces as
// ctx.Err(), and a contained task panic as *AnalysisError. The engine's
// memos are safe in every case — they only ever store completed
// computes, and their single-flight entries release waiters on panic.
func (e *Engine) infer(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options,
	inc *incrementalPlan) (*Result, *runArtifacts, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := admit(prog, opts); err != nil {
		return nil, nil, err
	}
	if sums == nil {
		sums = summaries.Default()
	}
	var cg *cfg.CallGraph
	var infos map[string]*cfg.ProcInfo
	if inc != nil {
		cg, infos = inc.cg, inc.infoMap
	} else {
		cg = cfg.BuildCallGraph(prog)
	}
	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}

	res := &Result{
		Prog:  prog,
		Lat:   lat,
		Procs: make(map[string]*ProcResult, len(prog.Procs)),
		SCCs:  cg.SCCs,
	}

	// NoSchemeCache/NoShapeCache bypass the engine's memos: callers
	// measuring the uncached baseline must actually get one.
	var cache *pgraph.SimplifyCache
	if !opts.NoSchemeCache {
		cache = e.schemes
	}
	var shapeCache *sketch.ShapeCache
	if !opts.NoShapeCache {
		shapeCache = e.shapes
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
		pl.dedup = newDedupState(lat, opts, sums, isConst, e.bodies)
	}
	if inc != nil {
		// Clean procedures replay their previous schemes; publish them
		// before any task runs so dirty callers see every callee.
		for i, snap := range inc.snaps {
			if !inc.dirty[i] {
				pl.schemes[i] = snap.pr.Scheme
			}
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
		res.BodyDedupHits, res.BodyDedupMisses = pl.dedup.hits, pl.dedup.misses
		res.BodyDedupCrossHits = pl.dedup.crossHits
		// Publish only now, after every phase succeeded: entries must
		// never expose results of a faulted or cancelled run.
		pl.dedup.publish(pl, prog)
	}
	if inc != nil {
		for _, d := range inc.dirty {
			if d {
				res.RecomputedProcs++
			} else {
				res.ReplayedProcs++
			}
		}
	}
	return res, &runArtifacts{cg: cg, order: pl.order, procIdx: pl.procIdx, prs: pl.prs, obs: pl.obs, inc: inc}, nil
}

// replayClean fills the F.2 slots of every clean procedure of an
// incremental run with its session snapshot's result and callsite
// observations. A replay only copies pointers, so it runs inline rather
// than as a pool task, but still under runGuarded as an F.2 item (hooks
// and faults see it like any other F.2 task); the first fault stops the
// loop. The snapshot's result is shared, never written: a procedure
// that F.3 must refine again gets a fresh shell first (freshShells).
func (pl *pipeline) replayClean() {
	for i, p := range pl.order {
		if pl.inc.dirty[i] {
			continue
		}
		snap := pl.inc.snaps[i]
		if !pl.runGuarded("F.2", -1, p, func() { pl.prs[i], pl.obs[i] = snap.pr, snap.obs }) {
			return
		}
	}
}

// runArtifacts carries the per-procedure outputs of one pipeline run in
// canonical order, for the engine's session recording.
type runArtifacts struct {
	cg      *cfg.CallGraph
	order   []string
	procIdx map[string]int
	prs     []*ProcResult
	obs     [][]actualObs
	inc     *incrementalPlan // nil for full runs
}

// incrementalPlan tells a pipeline run what changed since the engine's
// previous session. Every slice is indexed like the pipeline's
// canonical order (pipelineOrder), which the plan carries with the call
// graph it came from so the run need not rebuild either. snaps holds
// each procedure's previous snapshot (nil for new procedures); infos
// and fps its analyses and session fingerprint in the new program,
// which the engine records (infoMap holds the same analyses by name,
// HasOut fixpoint completed, for the run); dirty marks the procedures
// that run F.1 and F.2 again. The plan's construction (Engine.plan)
// guarantees the replay soundness
// invariant: a clean procedure's transitive callees are all clean, so
// its previous scheme, sketch and callsite observations are
// byte-identical to what a from-scratch run would compute.
//
// refine marks the F.3-dirty procedures, the only ones F.3 refines
// again. A procedure's specialized parameters are a function of its own
// sketch and formals and of the observations keyed to it, joined in
// canonical order; so they can change only for a dirty procedure, a
// callee observed by a dirty procedure's new or previous run or by a
// removed procedure's previous run, or a procedure whose snapshot
// cannot serve its result as is (its formals or HasOut moved, or it was
// loaded from disk, which carries no F.3 output). Reanalyze seeds every
// term it can see before the run; the pipeline adds the callees of the
// dirty procedures' new observations once F.2 has produced them. Every
// other procedure reuses its snapshot's *ProcResult itself.
type incrementalPlan struct {
	cg      *cfg.CallGraph
	order   []string
	procIdx map[string]int
	infoMap map[string]*cfg.ProcInfo
	snaps   []*procSnap
	infos   []*cfg.ProcInfo
	fps     []*bodyfp.FP
	dirty   []bool
	refine  []bool
}

// markObserved marks every program procedure some observation in obs
// is keyed to as F.3-dirty.
func (inc *incrementalPlan) markObserved(obs []actualObs) {
	for _, o := range obs {
		if i, ok := inc.procIdx[o.key.callee]; ok {
			inc.refine[i] = true
		}
	}
}

// freshShells completes an incremental run's F.3-dirty set with the
// callees of the dirty procedures' new observations, and gives every
// clean F.3-dirty procedure a fresh result shell — its snapshot's
// scheme and sealed sketch under the current formals, with no
// specializations yet — so F.3 never writes into a result the previous
// Result or session holds.
func (pl *pipeline) freshShells() {
	inc := pl.inc
	for i, d := range inc.dirty {
		if d {
			inc.markObserved(pl.obs[i])
		}
	}
	for i, r := range inc.refine {
		if !r || inc.dirty[i] {
			continue
		}
		snap, pi := inc.snaps[i], pl.infos[pl.order[i]]
		pl.prs[i] = &ProcResult{
			Name:           pl.order[i],
			FormalIns:      pi.FormalIns,
			HasOut:         pi.HasOut,
			Scheme:         snap.pr.Scheme,
			Sketch:         snap.pr.Sketch,
			SpecializedIns: map[string]*sketch.Sketch{},
		}
	}
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
	// procedure's own F.2, members served from a representative) — so
	// concurrent tasks touch disjoint elements and a shared map's
	// write/read races cannot arise. fps carries the constraint-set
	// fingerprint of each single-member SCC forward so Phase 2 need not
	// recompute it (a multi-member SCC's members have per-procedure
	// sets that differ from the SCC union, so those are fingerprinted
	// in Phase 2). The procedure's own F.2 is the last reader of its
	// gens and fps slots and clears them.
	schemes []*constraints.Scheme
	gens    []*absint.Result
	fps     []*pgraph.FP

	// memberOf marks procedures served by body dedup: set in the
	// sequential classification pre-pass, read by their F.1 and F.2
	// tasks.
	memberOf []*memberPlan

	// dedup is the whole-body deduplication layer (nil when disabled).
	// Its class tables are written only in the sequential
	// classification pre-pass (classifyBodies); during scheduling the
	// tasks touch nothing but its atomic hit/miss counters.
	dedup *dedupState

	// inc is the incremental plan of a Reanalyze run (nil for full
	// runs): clean SCCs' schemes are pre-published and their procedures
	// replay their snapshots (replayClean); only dirty SCCs ride the
	// readiness graph, and only F.3-dirty procedures are refined.
	inc *incrementalPlan

	// prs and obs are the phase-2 outputs, parallel to order, retained
	// for the engine's session recording.
	prs []*ProcResult
	obs [][]actualObs
}

// pipelineOrder returns the canonical procedure order of cg — top-down
// SCC order, members in SCC slice order — and its inverse.
func pipelineOrder(cg *cfg.CallGraph) ([]string, map[string]int) {
	var order []string
	for i := len(cg.SCCs) - 1; i >= 0; i-- {
		order = append(order, cg.SCCs[i]...)
	}
	procIdx := make(map[string]int, len(order))
	for i, p := range order {
		procIdx[p] = i
	}
	return order, procIdx
}

// initIndex freezes the canonical procedure order (an incremental
// plan's, which Reanalyze built from the same call graph) and sizes
// every per-procedure slot slice.
func (pl *pipeline) initIndex(cg *cfg.CallGraph) {
	if pl.inc != nil {
		pl.order, pl.procIdx = pl.inc.order, pl.inc.procIdx
	} else {
		pl.order, pl.procIdx = pipelineOrder(cg)
	}
	n := len(pl.order)
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
		analyzed[i] = cfg.Analyze(fresh[i])
	})
	infos := make(map[string]*cfg.ProcInfo, len(prog.Procs))
	for i, p := range fresh {
		infos[p.Name] = analyzed[i]
	}
	for _, p := range prog.Procs {
		if a, ok := cloneFrom[p.Name]; ok {
			infos[p.Name] = infos[a].CloneForProgram(p)
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

// runMemberF1 serves a dedup member's F.1: its scheme is its source's
// — the stored body entry's for cross-program serves, the in-program
// representative's published one otherwise — rerooted at the member.
// Both are closed (entries are checked when decoded), so the root is
// the only name to change.
func (pl *pipeline) runMemberF1(p string, plan *memberPlan) {
	var src *constraints.Scheme
	if plan.entry != nil {
		src = plan.entry.scheme
	} else {
		src = pl.schemeOf(plan.rep)
	}
	root := constraints.Var(p)
	cs, ex := constraints.Reroot(src.Constraints, src.Existential, src.Root, root)
	pl.schemes[pl.procIdx[p]] = &constraints.Scheme{Root: root, Constraints: cs, Existential: ex}
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
	// Each member's minted variables are scoped by its slot in the SCC,
	// not by its name: the slots keep the members' locals apart in the
	// SCC union, and the names recur in every SCC of every program.
	aopts := pl.opts.Absint
	generate := func(j int) *absint.Result {
		aopts.SCCSlot = j + 1
		gr := absint.Generate(pl.infos[scc[j]], pl.infos, pl.schemeOf, pl.sums, pl.isConst, aopts)
		out.gens[j] = gr
		return gr
	}
	var sccCs *constraints.Set
	if len(scc) == 1 {
		// The SCC union of a single member IS its generated set (same
		// contents, same order); reuse it instead of re-hashing every
		// constraint into a copy. Generate returns a fresh set, and the
		// pipeline only ever reads it afterwards.
		sccCs = generate(0).Constraints
	} else {
		sccCs = constraints.NewSet()
		for j := range scc {
			sccCs.InsertAll(generate(j).Constraints)
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
// in a canonical order — for an incremental run, only the keys of
// F.3-dirty callees.
func (pl *pipeline) collectActuals(res *Result) map[actualKey]*sketch.Sketch {
	if pl.inc != nil {
		pl.freshShells()
	}
	for i, p := range pl.order {
		res.Procs[p] = pl.prs[i]
	}

	// Deterministic accumulation: flatten and sort the observations by
	// (callee, location, caller, callsite) before joining, so the join
	// order per callee/param key is stable no matter which worker got
	// there first. Filtering whole callees keeps each remaining key's
	// observations, and their order, exactly as in the full sort.
	if pl.opts.NoSpecialize {
		return nil
	}
	var all []actualObs
	if pl.inc == nil {
		for _, o := range pl.obs {
			all = append(all, o...)
		}
	} else {
		// The F.3-dirty set is small: a set of its own names is cheaper
		// to probe than the whole program's index.
		refined := map[string]bool{}
		for i, r := range pl.inc.refine {
			if r {
				refined[pl.order[i]] = true
			}
		}
		for _, o := range pl.obs {
			for _, ob := range o {
				if refined[ob.key.callee] {
					all = append(all, ob)
				}
			}
		}
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
	gr, fp := pl.gens[idx], pl.fps[idx]
	pl.gens[idx], pl.fps[idx] = nil, nil // this task is their last reader
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
// observed actuals, per procedure in sorted name order — every
// procedure of a full run, the F.3-dirty ones of an incremental run.
// Items run under the run's panic containment and the fan-out observes
// the run context, so a fault or a cancellation stops the phase at an
// item boundary.
func (pl *pipeline) refineParameters(res *Result, actuals map[actualKey]*sketch.Sketch) error {
	if pl.opts.NoSpecialize {
		return nil
	}
	names := make([]string, 0, len(pl.order))
	for i, p := range pl.order {
		if pl.inc == nil || pl.inc.refine[i] {
			names = append(names, p)
		}
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
