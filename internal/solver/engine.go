package solver

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"runtime/debug"
	"slices"
	"sync"

	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Engine is a long-lived analysis session and the only way into the
// pipeline: it owns the whole memo stack (the scheme-simplification and
// shape memos and the body-class table, shared by every run) and the
// session state incremental re-analysis diffs against. A one-shot
// inference is a run on a fresh engine with session recording off,
// which retains nothing once dropped. An engine a service keeps warm
// shares its memos run after run, Reanalyze replays everything a small
// edit did not touch, and SaveCache/LoadCache move the memo stack
// across process restarts.
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

// NewEngine returns an engine with empty caches of the package default
// capacities (pgraph.DefaultSimplifyCacheCap, sketch.DefaultShapeCacheCap).
func NewEngine() *Engine {
	return &Engine{
		schemes: pgraph.NewSimplifyCache(0),
		shapes:  sketch.NewShapeCache(0),
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
	// index maps each procedure name to its snapshot in snaps.
	index map[string]int
	snaps []procSnap
}

// snap returns the named procedure's snapshot, or nil.
func (s *session) snap(name string) *procSnap {
	if i, ok := s.index[name]; ok {
		return &s.snaps[i]
	}
	return nil
}

// procSnap is one procedure's session snapshot.
//
//retypd:cachekey Engine.SaveSessionTo
type procSnap struct {
	name string
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
	info *cfg.ProcInfo
	// pr is the full phase-1/2/3 result. Its sketches — Sketch and the
	// specialized parameters — are sealed at record time, so a replay
	// shares it, pointer and all, across runs and goroutines.
	pr *ProcResult
	// refined reports that pr carries its F.3 output. Snapshots loaded
	// from disk carry none, so the first Reanalyze after a load refines
	// every procedure again.
	//retypd:notkey always false on load: the wire form carries no F.3 output
	refined bool
	// obs are the callsite-actual observations the procedure
	// contributed to phase 3, replayed verbatim for clean procedures.
	obs []actualObs
	// scc lists the members of the procedure's SCC, in call-graph
	// slice order; a membership change invalidates the whole SCC even
	// when a member's own body did not change (its scheme was
	// simplified relative to the old SCC union).
	scc []string
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

// InferContext runs the full pipeline with the engine's caches and
// records the run as the engine's current session. Cancellation and
// deadlines are observed cooperatively at task boundaries (an
// already-cancelled ctx returns before any worker spawns), task panics
// come back as structured *AnalysisError, and oversized inputs as
// *LimitError. On any error the engine publishes nothing — no session
// is recorded, the shared caches hold only completed computes — so the
// engine stays usable and its next run is byte-identical to one on a
// never-faulted engine.
func (e *Engine) InferContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (*Result, error) {
	return e.run(ctx, prog, lat, sums, opts, false)
}

// ReanalyzeContext infers prog incrementally against the engine's
// previous session: procedures whose portable body fingerprints are
// unchanged — and whose transitive callees are all unchanged, and whose
// SCC membership did not move — are replayed from the session verbatim;
// only dirty SCCs and their condensed-call-graph ancestors run the
// pipeline. The result is byte-identical to a from-scratch Infer of
// prog (a golden guarantee the tests enforce on the corpus); the run
// becomes the engine's new session. Without a compatible previous
// session this degrades to a full (recorded) run.
//
// Errors follow InferContext's no-partial-state contract: on
// cancellation, task panic, or admission rejection the previous session
// stays current and nothing of the aborted run is published.
func (e *Engine) ReanalyzeContext(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (*Result, error) {
	return e.run(ctx, prog, lat, sums, opts, true)
}

// run is every engine run: an incremental one first plans against the
// session (a nil plan, for want of a compatible session, makes it a
// full run), then the pipeline runs and the run is recorded.
func (e *Engine) run(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options, incremental bool) (res *Result, err error) {
	// Backstop containment: the pipeline converts task panics itself;
	// anything that still unwinds to here (a fault in planning, in
	// pre-pipeline analysis or in session recording) must not crash the
	// process the engine serves.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{SCC: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	var inc *incrementalPlan
	if incremental {
		if inc, err = e.plan(ctx, prog, lat, sums, opts); err != nil {
			return nil, err
		}
	}
	res, art, err := e.infer(ctx, prog, lat, sums, opts, inc)
	if err != nil {
		return nil, err
	}
	e.record(lat, sums, opts, res, art)
	return res, nil
}

// plan diffs prog against the engine's session into an incremental
// plan, or returns nil when there is no session the run can diff
// against (none recorded, or one under other inputs).
func (e *Engine) plan(ctx context.Context, prog *asm.Program, lat *lattice.Lattice, sums summaries.Table, opts Options) (*incrementalPlan, error) {
	e.mu.Lock()
	sess := e.sess
	e.mu.Unlock()
	if sess == nil || !sessionable(opts) ||
		sess.latSig != lat.Signature() || !optsCompatible(sess.opts, opts) ||
		sess.sumsDig != sessionSumsDigest(sums) {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := admit(prog, opts); err != nil {
		return nil, err
	}

	// Every per-procedure slice below is indexed like the pipeline's
	// canonical order, which the plan hands on to the run.
	cg := cfg.BuildCallGraph(prog)
	order, procIdx := pipelineOrder(cg)
	n := len(order)
	plan := &incrementalPlan{
		cg:      cg,
		order:   order,
		procIdx: procIdx,
		snaps:   make([]*procSnap, n),
		infos:   make([]*cfg.ProcInfo, n),
		fps:     make([]*bodyfp.FP, n),
		dirty:   make([]bool, n),
		refine:  make([]bool, n),
	}
	procs := make([]*asm.Proc, n)
	for _, p := range prog.Procs {
		procs[procIdx[p.Name]] = p
	}

	// Rebuild the program analyses. A body equal to its snapshot's
	// reuses the snapshot's analyses, rebased onto the new program, and
	// its fingerprint: both are functions of the body alone (and of the
	// session configuration, which the compatibility check above pins).
	// The other bodies are analyzed and fingerprinted in parallel; a
	// session loaded from disk carries no analyses, so its first
	// Reanalyze analyzes everything. Byte-identical bodies among them
	// share one analysis: ProcInfo is a pure function of the instruction
	// stream, so one representative per group is analyzed and the rest
	// clone — the same economy the body-dedup layer gives a cold run
	// (dedup.go), without which warm-path CFG analysis would dominate
	// Reanalyze on duplicate-heavy programs. The interprocedural HasOut
	// fixpoint always re-runs.
	infoList, fps := plan.infos, plan.fps
	var reps []int
	var clones [][2]int // (procedure, its representative)
	var bodyGroups map[uint64][]int
	matched := 0
	for i, p := range procs {
		snap := sess.snap(order[i])
		plan.snaps[i] = snap
		if snap != nil {
			matched++
			if snap.info != nil && snap.info.Proc.EqualBody(p) {
				infoList[i] = snap.info.CloneForProgram(p)
				fps[i] = snap.fp
				continue
			}
		}
		if bodyGroups == nil {
			bodyGroups = map[uint64][]int{}
		}
		h := bodyHashOf(p)
		rep := -1
		for _, j := range bodyGroups[h] {
			if procs[j].EqualBody(p) {
				rep = j
				break
			}
		}
		if rep < 0 {
			bodyGroups[h] = append(bodyGroups[h], i)
			reps = append(reps, i)
		} else {
			clones = append(clones, [2]int{i, rep})
		}
	}
	conf := sessionConfig(lat, opts)
	if err := conc.ForEachCtx(ctx, conc.Limit(opts.Workers), len(reps), func(r int) {
		i := reps[r]
		infoList[i] = cfg.Analyze(procs[i])
		fps[i] = bodyfp.ComputeWithLiveMask(procs[i], conf, namedCallee, infoList[i].EntryLive)
	}); err != nil {
		return nil, err
	}
	for _, c := range clones {
		infoList[c[0]] = infoList[c[1]].CloneForProgram(procs[c[0]])
		fps[c[0]] = fps[c[1]]
	}
	plan.infoMap = make(map[string]*cfg.ProcInfo, n)
	for i, p := range order {
		plan.infoMap[p] = infoList[i]
	}
	cfg.FinishHasOut(plan.infoMap)

	// Seed dirtiness: new/changed bodies, calls whose target flipped
	// between program-procedure and external (the fingerprint encodes
	// only the name, but generation models the two differently), and
	// SCC membership changes. Only an added or a removed name can flip.
	var flipped map[string]bool
	var removed []*procSnap
	if matched < n || matched < len(sess.snaps) {
		flipped = map[string]bool{}
		for i, snap := range plan.snaps {
			if snap == nil {
				flipped[order[i]] = true
			}
		}
		for j := range sess.snaps {
			snap := &sess.snaps[j]
			if _, ok := procIdx[snap.name]; !ok {
				flipped[snap.name] = true
				removed = append(removed, snap)
			}
		}
	}
	for i, snap := range plan.snaps {
		d := snap == nil || (fps[i] != snap.fp && !snap.fp.EquivalentTo(fps[i]))
		if !d && flipped != nil {
			for _, c := range fps[i].Calls() {
				if flipped[c.Target] {
					d = true
					break
				}
			}
		}
		plan.dirty[i] = d
	}
	// Walk the SCCs in canonical order: each one's members occupy the
	// next len(scc) slots.
	i := 0
	for s := len(cg.SCCs) - 1; s >= 0; s-- {
		for range cg.SCCs[s] {
			if snap := plan.snaps[i]; snap != nil && !slices.Equal(snap.scc, cg.SCCs[s]) {
				plan.dirty[i] = true
			}
			i++
		}
	}

	// Propagate to ancestors over the condensed call graph: schemes flow
	// callee→caller, so every SCC that can reach a dirty SCC must
	// recompute. cg.SCCs is bottom-up (every call edge from SCC i lands
	// in some SCC j < i), so one forward pass suffices; SCC 0 holds the
	// last slots of the canonical order. A dirty SCC marks all its
	// members, so by the time SCC i is visited a callee in another SCC
	// is dirty exactly when its SCC is.
	end := n
	for _, scc := range cg.SCCs {
		start := end - len(scc)
		d := false
	outer:
		for i := start; i < end; i++ {
			if plan.dirty[i] {
				d = true
				break
			}
			for _, callee := range cg.Callees[order[i]] {
				if plan.dirty[procIdx[callee]] {
					d = true
					break outer
				}
			}
		}
		if d {
			for i := start; i < end; i++ {
				plan.dirty[i] = true
			}
		}
		end = start
	}

	// Seed the F.3-dirty set with every term known before the run (see
	// incrementalPlan); the pipeline adds the callees of the dirty
	// procedures' new observations.
	for i, snap := range plan.snaps {
		pi := infoList[i]
		switch {
		case plan.dirty[i]:
			plan.refine[i] = true
			if snap != nil {
				plan.markObserved(snap.obs)
			}
		case !snap.refined || snap.pr.HasOut != pi.HasOut || !slices.Equal(snap.pr.FormalIns, pi.FormalIns):
			plan.refine[i] = true
		}
	}
	for _, snap := range removed {
		plan.markObserved(snap.obs)
	}
	return plan, nil
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

// record publishes a run as the engine's session. An incremental run
// hands over the fingerprints and analyses Reanalyze already holds; a
// full run's fingerprints are computed here. A nil sums stands for the
// stock table. Runs whose options cannot be compared across calls
// (trace-restricted generation) are not recorded.
//
// The session takes the run's canonical order and its index as they
// are, one snapshot per procedure in one slice, and each snapshot
// points at this run's analyses, so no snapshot keeps an older program
// alive.
func (e *Engine) record(lat *lattice.Lattice, sums summaries.Table, opts Options, res *Result, art *runArtifacts) {
	if e.noSessions || !sessionable(opts) {
		return
	}
	var fps []*bodyfp.FP
	var infos []*cfg.ProcInfo
	if inc := art.inc; inc != nil {
		fps, infos = inc.fps, inc.infos
	} else {
		conf := sessionConfig(lat, opts)
		fps = make([]*bodyfp.FP, len(art.order))
		conc.ForEach(conc.Limit(opts.Workers), len(art.order), func(i int) {
			fps[i] = bodyfp.Compute(res.Prog.ProcIndex[art.order[i]], conf, namedCallee)
		})
		infos = make([]*cfg.ProcInfo, len(art.order))
		for i, p := range art.order {
			infos[i] = res.Infos[p]
		}
	}
	sess := &session{
		latSig:  lat.Signature(),
		sumsDig: sessionSumsDigest(sums),
		opts:    opts,
		index:   art.procIdx,
		snaps:   make([]procSnap, len(art.order)),
	}
	for i, p := range art.order {
		pr := art.prs[i]
		// Seal everything a future run will share: the procedure sketch,
		// the specialized parameters and the observation sketches.
		// Sealing is idempotent and read-transparent — derived views copy
		// instead of mutating. A snapshot's own result and observations,
		// replayed as they are, were sealed when it was recorded.
		if inc := art.inc; inc == nil || inc.dirty[i] || pr != inc.snaps[i].pr {
			if pr.Sketch != nil {
				pr.Sketch.Seal()
			}
			for _, sk := range pr.SpecializedIns {
				sk.Seal()
			}
			for _, o := range art.obs[i] {
				o.sk.Seal()
			}
		}
		sess.snaps[i] = procSnap{
			name:    p,
			fp:      fps[i],
			info:    infos[i],
			pr:      pr,
			refined: true,
			obs:     art.obs[i],
		}
	}
	// The SCCs in canonical order: each one's members occupy the next
	// len(scc) slots.
	i := 0
	for s := len(art.cg.SCCs) - 1; s >= 0; s-- {
		for range art.cg.SCCs[s] {
			sess.snaps[i].scc = art.cg.SCCs[s]
			i++
		}
	}
	e.mu.Lock()
	e.sess = sess
	e.mu.Unlock()
}
