package solver

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"runtime/debug"
	"sync"

	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Engine is a long-lived analysis session: it owns the whole memo stack
// (the scheme-simplification and shape caches shared by every run, plus
// the per-run body-dedup layer the pipeline builds itself) and the
// session state incremental re-analysis diffs against. Where a plain
// Infer call is one-shot — private caches, nothing retained — an Engine
// is the unit a service keeps warm: run after run shares the caches,
// Reanalyze replays everything a small edit did not touch, and
// SaveCache/LoadCache move the cache stack across process restarts.
//
// Methods are safe for concurrent use. Concurrent Infer calls share the
// caches freely (their keys are canonical; see the cache sharing
// contracts); session recording is last-writer-wins, and Reanalyze
// diffs against the most recently recorded session.
type Engine struct {
	schemes *pgraph.SimplifyCache
	shapes  *sketch.ShapeCache
	// bodies is the engine-scoped body-class table: the third, topmost
	// cache layer. Runs through this engine file every analyzed body
	// here; a later run (of this or any other program) whose body is
	// equivalent is served the sealed entry before its front end runs.
	bodies *bodyCache

	// noSessions disables session recording (DisableSessionRecording):
	// the engine is then a pure cache sharer.
	noSessions bool

	mu   sync.Mutex
	sess *session
}

// NewEngine returns an engine with empty caches bounded to the given
// capacities (≤ 0 selects the package defaults).
func NewEngine(schemeCap, shapeCap int) *Engine {
	return &Engine{
		schemes: pgraph.NewSimplifyCache(schemeCap),
		shapes:  sketch.NewShapeCache(shapeCap),
		bodies:  newBodyCache(),
	}
}

// SchemeCache exposes the engine's scheme-simplification memo
// (observability: Stats/Len).
func (e *Engine) SchemeCache() *pgraph.SimplifyCache { return e.schemes }

// ShapeCache exposes the engine's phase-2 shape memo.
func (e *Engine) ShapeCache() *sketch.ShapeCache { return e.shapes }

// DisableSessionRecording turns the engine into a pure cache sharer:
// Infer skips the session snapshot (the whole-program fingerprint pass
// and the retention of the previous run's analyses), and Reanalyze
// degrades to a full Infer. For callers that run many unrelated
// programs through one engine purely for the shared memos — the
// evaluation suite is one — and never re-analyze an edited program.
// Call before the first Infer; not synchronized with concurrent runs.
func (e *Engine) DisableSessionRecording() {
	e.noSessions = true
	e.mu.Lock()
	e.sess = nil
	e.mu.Unlock()
}

// session is the recorded outcome of the engine's most recent run: the
// inputs that parameterized it and, per procedure, everything a clean
// replay needs. Sessions are immutable once published. Every field must
// reach the persisted wire form (SaveSessionTo) — a session loaded in a
// fresh process must replay exactly like the one that was saved.
//
//retypd:cachekey Engine.SaveSessionTo
type session struct {
	latSig string
	// sumsDig is the content digest of the run's summaries table
	// (sumsDigest): sessions loaded from disk carry only the digest,
	// never the table, so compatibility is always a digest compare.
	sumsDig string
	opts    Options
	procs   map[string]*procSnap
	// sccKey maps each procedure to a canonical rendering of its SCC's
	// member set; a membership change invalidates the whole SCC even
	// when a member's own body did not change (its scheme was
	// simplified relative to the old SCC union).
	sccKey map[string]string
}

// procSnap is one procedure's session snapshot.
//
//retypd:cachekey Engine.SaveSessionTo
type procSnap struct {
	// fp is the portable body fingerprint (named callee identities), the
	// dirtiness oracle: equal fingerprints plus clean transitive callees
	// imply byte-identical pipeline output for the procedure.
	fp *bodyfp.FP
	// info carries the per-procedure CFG analyses for rebasing onto the
	// next program (cfg.ProcInfo.CloneForProgram). Deliberately absent
	// from the session wire form: ProcInfo holds program-relative state
	// that is cheap to recompute and must never reach a persisted key
	// (docs/ARCHITECTURE.md invariant) — the first Reanalyze after a
	// load rebuilds it from the new program's CFG.
	//retypd:notkey program-relative CFG state, rebuilt on load by the first Reanalyze
	info   *cfg.ProcInfo
	scheme *constraints.Scheme
	// pr is the full phase-2/3 result; its Sketch is sealed at record
	// time so replays can share it across runs and goroutines.
	pr *ProcResult
	// obs are the callsite-actual observations the procedure
	// contributed to phase 3, replayed verbatim for clean procedures.
	obs []actualObs
}

// sessionConfig derives the body-fingerprint configuration of a run.
// Only named callee identities are used, so session fingerprints are
// portable and independent of any per-run class numbering.
func sessionConfig(lat *lattice.Lattice, opts Options) bodyfp.Config {
	return bodyfp.Config{
		MonomorphicCalls:      opts.Absint.MonomorphicCalls,
		PolymorphicExternals:  opts.Absint.PolymorphicExternals,
		NoConstantSuppression: opts.Absint.NoConstantSuppression,
		LatticeSig:            lat.Signature(),
	}
}

// namedCallee is the CalleeID source of session fingerprints: every
// target is identified by its exact name. Unlike the in-run dedup
// layer there is no eligibility filtering — session fingerprints cover
// every procedure, including self-recursive ones and reserved names.
func namedCallee(target string) (bodyfp.CalleeID, bool) {
	return bodyfp.CalleeID{Kind: bodyfp.CalleeNamed, Name: target}, true
}

// sessionable reports whether a run's options admit session recording.
// Covered (trace-restricted generation) is a function and cannot be
// compared across runs, so such runs are never recorded.
func sessionable(opts Options) bool { return opts.Absint.Covered == nil }

// optsCompatible reports whether two runs' options produce comparable
// sessions (worker count and cache knobs never change output, so they
// are ignored).
func optsCompatible(a, b Options) bool {
	return a.Absint.MonomorphicCalls == b.Absint.MonomorphicCalls &&
		a.Absint.PolymorphicExternals == b.Absint.PolymorphicExternals &&
		a.Absint.NoConstantSuppression == b.Absint.NoConstantSuppression &&
		a.Absint.Covered == nil && b.Absint.Covered == nil &&
		a.MaxSketchDepth == b.MaxSketchDepth &&
		a.NoSpecialize == b.NoSpecialize
}

// withEngineCaches forces the engine's caches into opts (the No*
// escape hatches keep working for baseline measurements).
func (e *Engine) withEngineCaches(opts Options) Options {
	opts.SchemeCache = e.schemes
	opts.ShapeCache = e.shapes
	opts.bodyCache = e.bodies
	return opts
}

// Infer runs the full pipeline with the engine's caches and records the
// run as the engine's current session. It cannot be cancelled; a
// contained task panic (*AnalysisError) or an admission rejection
// (*LimitError) is re-raised. Services use InferContext.
func (e *Engine) Infer(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) *Result {
	res, err := e.InferContext(context.Background(), prog, lat, sums, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// InferContext is Infer under a context: cancellation and deadlines are
// observed cooperatively at task boundaries (an already-cancelled ctx
// returns before any worker spawns), task panics come back as
// structured *AnalysisError, and oversized inputs as *LimitError. On
// any error the engine publishes nothing — no session is recorded, the
// shared caches hold only completed computes — so the engine stays
// usable and its next run is byte-identical to one on a never-faulted
// engine.
func (e *Engine) InferContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (res *Result, err error) {
	// Backstop containment: the pipeline converts task panics itself;
	// anything that still unwinds to here (a fault in pre-pipeline
	// analysis or in session recording) must not crash the process the
	// engine serves.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{SCC: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	opts = e.withEngineCaches(opts)
	opts.ctx = ctx
	res, art, err := infer(prog, lat, sums, opts, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	e.record(lat, sums, opts, res, art, nil, nil)
	return res, nil
}

// Reanalyze infers prog incrementally against the engine's previous
// session: procedures whose portable body fingerprints are unchanged —
// and whose transitive callees are all unchanged, and whose SCC
// membership did not move — are replayed from the session verbatim;
// only dirty SCCs and their condensed-call-graph ancestors run the
// pipeline. The result is byte-identical to a from-scratch Infer of
// prog (a golden guarantee the tests enforce on the corpus); the run
// becomes the engine's new session. Without a compatible previous
// session this degrades to a full (recorded) run.
func (e *Engine) Reanalyze(prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) *Result {
	res, err := e.ReanalyzeContext(context.Background(), prog, lat, sums, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// ReanalyzeContext is Reanalyze under a context, with the same error
// and no-partial-state contract as InferContext: on cancellation, task
// panic, or admission rejection the previous session stays current and
// nothing of the aborted run is published.
func (e *Engine) ReanalyzeContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{SCC: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	e.mu.Lock()
	sess := e.sess
	e.mu.Unlock()
	if sess == nil || !sessionable(opts) ||
		sess.latSig != lat.Signature() || !optsCompatible(sess.opts, opts) ||
		sess.sumsDig != sessionSumsDigest(sums) {
		return e.InferContext(ctx, prog, lat, sums, opts)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := admit(prog, opts); err != nil {
		return nil, err
	}
	opts = e.withEngineCaches(opts)
	opts.ctx = ctx

	// Rebuild the program analyses in parallel, rebasing every unchanged
	// procedure body onto the new program instead of re-running its
	// per-procedure analyses (a session loaded from disk carries no
	// analyses, so its first Reanalyze re-analyzes everything); the
	// interprocedural HasOut fixpoint always re-runs. Byte-identical
	// bodies share one analysis: ProcInfo is a pure function of the
	// instruction stream, so one representative per group is analyzed
	// and the rest clone — the same economy the body-dedup layer gives a
	// cold run (dedup.go), without which warm-path CFG analysis would
	// dominate Reanalyze on duplicate-heavy programs.
	workers := conc.Limit(opts.Workers)
	infoList := make([]*cfg.ProcInfo, len(prog.Procs))
	snaps := make([]*procSnap, len(prog.Procs)) // nil: new procedure
	rep := make([]int, len(prog.Procs))
	bodyGroups := make(map[uint64][]int, len(prog.Procs))
	for i, p := range prog.Procs {
		snaps[i] = sess.procs[p.Name]
		rep[i] = i
		h := bodyHashOf(p)
		for _, j := range bodyGroups[h] {
			if prog.Procs[j].EqualBody(p) {
				rep[i] = j
				break
			}
		}
		if rep[i] == i {
			bodyGroups[h] = append(bodyGroups[h], i)
		}
	}

	// Each representative's portable body fingerprint is computed right
	// after its analysis. A fingerprint is a function of the instruction
	// stream alone (names enter only as call targets), so byte-identical
	// bodies share their group's. The call graph, which needs only the
	// program, is built by the same pool (item 0).
	conf := sessionConfig(lat, opts)
	order := prog.Procs
	fps := make([]*bodyfp.FP, len(order))
	var cg *cfg.CallGraph
	if err := conc.ForEachCtx(ctx, workers, len(prog.Procs)+1, func(item int) {
		if item == 0 {
			cg = cfg.BuildCallGraph(prog)
			return
		}
		i := item - 1
		if rep[i] != i {
			return
		}
		p := prog.Procs[i]
		if snap := snaps[i]; snap != nil && snap.info != nil && snap.info.Proc.EqualBody(p) {
			infoList[i] = snap.info.CloneForProgram(prog, p)
		} else {
			infoList[i] = cfg.Analyze(prog, p)
		}
		fps[i] = bodyfp.ComputeWithLiveMask(p, conf, namedCallee, infoList[i].EntryLive)
	}); err != nil {
		return nil, err
	}
	for i, p := range prog.Procs {
		if rep[i] != i {
			infoList[i] = infoList[rep[i]].CloneForProgram(prog, p)
			fps[i] = fps[rep[i]]
		}
	}
	infos := make(map[string]*cfg.ProcInfo, len(prog.Procs))
	for i, p := range prog.Procs {
		infos[p.Name] = infoList[i]
	}
	cfg.FinishHasOut(infos)
	fpOf := make(map[string]*bodyfp.FP, len(order))
	for i, p := range order {
		fpOf[p.Name] = fps[i]
	}

	// Seed dirtiness: new/changed bodies, calls whose target flipped
	// between program-procedure and external (the fingerprint encodes
	// only the name, but generation models the two differently), and
	// SCC membership changes.
	isProcNew := func(name string) bool { _, ok := infos[name]; return ok }
	isProcOld := func(name string) bool { _, ok := sess.procs[name]; return ok }
	dirty := make(map[string]bool, len(order))
	for i, p := range order {
		snap := snaps[i]
		d := snap == nil || !snap.fp.EquivalentTo(fps[i])
		if !d {
			for _, c := range fps[i].Calls() {
				if isProcNew(c.Target) != isProcOld(c.Target) {
					d = true
					break
				}
			}
		}
		dirty[p.Name] = d
	}
	sccKey := sccKeys(cg)
	for p, key := range sccKey {
		if sess.sccKey[p] != key {
			dirty[p] = true
		}
	}

	// Propagate to ancestors over the condensed call graph: schemes flow
	// callee→caller, so every SCC that can reach a dirty SCC must
	// recompute. cg.SCCs is bottom-up (every call edge from SCC i lands
	// in some SCC j < i), so one forward pass suffices. A dirty SCC
	// marks all its members, so by the time SCC i is visited a callee in
	// another SCC is dirty exactly when its SCC is.
	for _, scc := range cg.SCCs {
		d := false
	outer:
		for _, p := range scc {
			if dirty[p] {
				d = true
				break
			}
			for _, callee := range cg.Callees[p] {
				if dirty[callee] {
					d = true
					break outer
				}
			}
		}
		if d {
			for _, p := range scc {
				dirty[p] = true
			}
		}
	}

	replay := make(map[string]*procSnap, len(order))
	for i, p := range order {
		if !dirty[p.Name] {
			replay[p.Name] = snaps[i]
		}
	}

	res, art, err := infer(prog, lat, sums, opts, infos, cg, &incrementalPlan{dirty: dirty, replay: replay})
	if err != nil {
		return nil, err
	}
	e.record(lat, sums, opts, res, art, fpOf, sccKey)
	return res, nil
}

// sccKeys renders each procedure's SCC membership canonically (members
// are already in deterministic slice order).
func sccKeys(cg *cfg.CallGraph) map[string]string {
	out := make(map[string]string, len(cg.SCCs))
	for _, scc := range cg.SCCs {
		key := ""
		for _, p := range scc {
			key += p + "\x00"
		}
		for _, p := range scc {
			out[p] = key
		}
	}
	return out
}

// replayProc rebuilds a clean procedure's result from its session
// snapshot: a fresh shell (phase 3 fills SpecializedIns per run)
// sharing the immutable pieces — the scheme and the sealed sketch —
// plus the recorded callsite observations.
func (pl *pipeline) replayProc(p string) (*ProcResult, []actualObs) {
	snap := pl.inc.replay[p]
	pi := pl.infos[p]
	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         snap.scheme,
		Sketch:         snap.pr.Sketch,
		SpecializedIns: map[string]*sketch.Sketch{},
	}
	return pr, snap.obs
}

// bodyHashSeed keys the in-memory body-grouping hash of Reanalyze. The
// hash never leaves the process (candidates are confirmed with
// EqualBody), so the per-process seed is fine.
var bodyHashSeed = maphash.MakeSeed()

// bodyHashOf hashes a procedure's raw instruction stream for exact
// body grouping. Collisions are harmless (EqualBody arbitrates);
// labels need not be folded in for the same reason.
func bodyHashOf(p *asm.Proc) uint64 {
	var h maphash.Hash
	h.SetSeed(bodyHashSeed)
	var word [8]byte
	for _, in := range p.Insts {
		binary.LittleEndian.PutUint32(word[:4], uint32(in.Op))
		word[4] = byte(in.Dst.Kind)
		word[5] = byte(in.Dst.Reg)
		word[6] = byte(in.Src.Kind)
		word[7] = byte(in.Src.Reg)
		h.Write(word[:])
		binary.LittleEndian.PutUint32(word[:4], uint32(in.Dst.Imm))
		binary.LittleEndian.PutUint32(word[4:], uint32(in.Src.Imm))
		h.Write(word[:])
		h.WriteString(in.Target)
	}
	return h.Sum64()
}

// record publishes a run as the engine's session. fpOf and sccKey
// carry the session fingerprints and SCC keys when the caller already
// computed them (Reanalyze); otherwise they are computed here. A nil
// sums stands for the stock table. Runs whose options cannot be
// compared across calls (trace-restricted generation) are not
// recorded.
func (e *Engine) record(lat *lattice.Lattice, sums summaries.Table, opts Options, res *Result, art *runArtifacts, fpOf map[string]*bodyfp.FP, sccKey map[string]string) {
	if e.noSessions || !sessionable(opts) {
		return
	}
	// Sessions outlive the run; never retain its cancellation context.
	opts.ctx = nil
	conf := sessionConfig(lat, opts)
	if fpOf == nil {
		fps := make([]*bodyfp.FP, len(art.order))
		workers := conc.Limit(opts.Workers)
		conc.ForEach(workers, len(art.order), func(i int) {
			fps[i] = bodyfp.Compute(res.Prog.ProcIndex[art.order[i]], conf, namedCallee)
		})
		fpOf = make(map[string]*bodyfp.FP, len(art.order))
		for i, p := range art.order {
			fpOf[p] = fps[i]
		}
	}
	if sccKey == nil {
		sccKey = sccKeys(art.cg)
	}
	sess := &session{
		latSig:  lat.Signature(),
		sumsDig: sessionSumsDigest(sums),
		opts:    opts,
		procs:   make(map[string]*procSnap, len(art.order)),
		sccKey:  sccKey,
	}
	for i, p := range art.order {
		pr := art.prs[i]
		// Seal everything a future run will share: the procedure sketch
		// and the observation sketches. Sealing is idempotent and
		// read-transparent — derived views copy instead of mutating.
		if pr.Sketch != nil {
			pr.Sketch.Seal()
		}
		for _, o := range art.obs[i] {
			if o.sk != nil {
				o.sk.Seal()
			}
		}
		sess.procs[p] = &procSnap{
			fp:     fpOf[p],
			info:   res.Infos[p],
			scheme: pr.Scheme,
			pr:     pr,
			obs:    art.obs[i],
		}
	}
	e.mu.Lock()
	e.sess = sess
	e.mu.Unlock()
}
