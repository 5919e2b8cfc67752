package solver

import (
	"strings"
	"sync/atomic"

	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Body deduplication is the pipeline's earliest memoization layer: it
// groups procedures whose IR bodies are equivalent (internal/bodyfp)
// *before* abstract interpretation, runs constraint generation,
// fingerprinting, scheme simplification and sketch solving once per
// class, and translates the representative's results to the other
// members by the name surgery of absint.Renamer. Where the scheme and
// shape memos (PR 2–3) made duplicate procedures cheap to *solve*,
// this layer makes them cheap to *reach*: members skip Generate, the
// constraint-set fingerprint (a SHA-256 over the whole set), both LRU
// lookups, and the per-procedure sketch plumbing entirely.
//
// The class table behind it (bodyCache) is engine-scoped and
// persistent since PR 10: a class whose entry was published by an
// earlier run — or loaded from disk — serves its members before the
// front end touches them, across programs and across processes. Two
// serving paths coexist, tried in order:
//
//  1. Stored entry: the class carries the sealed results of a previous
//     full-path run; the member translates them directly (no dependency
//     on any SCC of this run) and skips even the representative's work.
//  2. In-program representative: the first full-path member of this
//     run serves later members exactly as the per-run layer of PR 4–9
//     did, through a readiness edge to the representative's SCC.
//
// Eligibility is conservative: only single-member, non-self-recursive
// SCCs participate, and only when every name involved (the procedure
// and its call targets) stays clear of the solver's reserved variable
// namespaces. Everything else falls back to the full path — body dedup
// never changes output, only work (a golden on/off equivalence the
// tests pin down byte-for-byte).
type dedupState struct {
	conf    bodyfp.Config
	isConst func(constraints.Var) bool
	keep    bool // Options.KeepIntermediates: members must also translate raw constraint sets

	// cache is the engine-scoped class table (run-private for one-shot
	// Infer calls). Its mutex guards class structure; everything below
	// is this run's private view, written only in the sequential
	// classification pre-pass.
	cache *bodyCache

	// classOf assigns every fingerprinted procedure its class id — the
	// callee identity later levels mix into their own body hashes.
	classOf map[string]uint32
	// localRep maps a class to this run's first full-path member — the
	// in-program translation source (path 2). Entry-served members
	// never become localRep: translateProc reads the representative's
	// generated constraints, which entry serving skips.
	localRep map[uint32]localSrc
	// anchor maps a class to its first in-program occurrence, the
	// CFG-analysis clone source: a later member with the identical
	// register assignment reuses the anchor's cfg.ProcInfo
	// (CloneForProgram) instead of re-running cfg.Analyze.
	anchor map[uint32]localSrc
	// cloneFrom maps members to their anchor when the clone is
	// admissible (SameRegisters); consumed by pipeline.buildInfos.
	cloneFrom map[string]string
	// pubs are this run's publish candidates: full-path members of
	// classes that had no entry at classification time. Published only
	// after the whole run succeeds (infer tail), first wins.
	pubs []pubCand

	// hits/misses/crossHits are atomic: classification misses are
	// counted in the sequential pre-pass, but member F.1 tasks account
	// their translation outcome concurrently on the readiness
	// scheduler. hits counts in-program translations (path 2),
	// crossHits entry serves (path 1), misses full-path procedures.
	hits, misses, crossHits atomic.Uint64
}

// localSrc names an in-program procedure together with the fingerprint
// it classified under.
type localSrc struct {
	p  string
	fp *bodyfp.FP
}

// pubCand is one publish candidate (see dedupState.pubs).
type pubCand struct {
	cls *bodyClass
	p   string
	fp  *bodyfp.FP
}

// memberPlan is everything needed to serve one dedup member: the
// translation source (a stored entry, or this run's representative) and
// the rename surgery into the member's own name space.
type memberPlan struct {
	rep string
	fp  *bodyfp.FP
	ren *absint.Renamer
	// entry is the stored body entry backing path 1 (nil for in-program
	// translation). Entry plans take no readiness dependency on any SCC
	// of this run.
	entry *bodyEntry
}

func newDedupState(lat *lattice.Lattice, opts Options, sums summaries.Table, isConst func(constraints.Var) bool, cache *bodyCache) *dedupState {
	return &dedupState{
		conf: bodyfp.Config{
			MonomorphicCalls:      opts.Absint.MonomorphicCalls,
			PolymorphicExternals:  opts.Absint.PolymorphicExternals,
			NoConstantSuppression: opts.Absint.NoConstantSuppression,
			LatticeSig:            lat.Signature(),
			CtxSig:                runCtxSig(opts, sums),
		},
		isConst:   isConst,
		keep:      opts.KeepIntermediates,
		cache:     cache,
		classOf:   map[string]uint32{},
		localRep:  map[uint32]localSrc{},
		anchor:    map[uint32]localSrc{},
		cloneFrom: map[string]string{},
	}
}

// nameEligible rejects names that collide with the solver's reserved
// variable namespaces ('!' locals, '@' callsite tags, '¤' canonical
// fingerprint names, '.' DTV paths, 'τ' existentials): the rename
// surgery could not classify variables built from them unambiguously.
func nameEligible(s string) bool {
	if s == "" || strings.ContainsAny(s, "@!.¤") || strings.HasPrefix(s, "τ") {
		return false
	}
	return true
}

// eligible reports whether procedure p may participate in body dedup:
// a single-member SCC without self-calls, with an unreserved,
// non-constant name.
func (ds *dedupState) eligible(p string, cg *cfg.CallGraph) bool {
	if !nameEligible(p) || ds.isConst(constraints.Var(p)) {
		return false
	}
	for _, callee := range cg.Callees[p] {
		if callee == p {
			return false
		}
	}
	return true
}

// calleeID supplies bodyfp with the identity bound to a call target:
// the target's body class when it has one (so wrappers around
// interchangeable callees still dedup), its exact name otherwise.
// It is called concurrently during a level's fingerprint pre-pass;
// classOf is only written between levels.
func (ds *dedupState) calleeID(target string) (bodyfp.CalleeID, bool) {
	if !nameEligible(target) || ds.isConst(constraints.Var(target)) {
		return bodyfp.CalleeID{}, false
	}
	if id, ok := ds.classOf[target]; ok {
		return bodyfp.CalleeID{Kind: bodyfp.CalleeClass, ID: uint64(id)}, true
	}
	return bodyfp.CalleeID{Kind: bodyfp.CalleeNamed, Name: target}, true
}

// classify files fp under its class in the engine-scoped table
// (creating one if it is the first occurrence anywhere) and returns a
// translation plan when p can be served — from a stored entry first,
// from this run's representative otherwise — or nil when p must run
// the full path. isProc identifies program-procedure names for the
// renamer's foreign-leak refusal and the entry portability check.
func (ds *dedupState) classify(p string, fp *bodyfp.FP, isProc func(string) bool) *memberPlan {
	cls, entry := ds.cache.lookup(fp)
	// Class membership (and with it the callee identity served to
	// callers) holds regardless of whether p is actually served below:
	// an excluded member computes the same scheme the translation would
	// have produced.
	ds.classOf[p] = cls.id

	// CFG-clone anchoring is purely in-program: the first occurrence
	// always pays cfg.Analyze (its ProcInfo is needed either way), and
	// identically-registered later members clone it.
	if a, ok := ds.anchor[cls.id]; ok {
		if fp.SameRegisters(a.fp) {
			ds.cloneFrom[p] = a.p
		}
	} else {
		ds.anchor[cls.id] = localSrc{p: p, fp: fp}
	}

	// Path 1: a stored entry from a previous run, program or process.
	if entry != nil {
		if plan := ds.entryPlan(p, fp, entry, isProc); plan != nil {
			return plan
		}
	}

	// Path 2: this run's full-path representative.
	if rep, ok := ds.localRep[cls.id]; ok {
		if plan := ds.localPlan(p, fp, rep, isProc); plan != nil {
			return plan
		}
		ds.misses.Add(1)
		return nil
	}

	// Full path. p becomes the run's translation source for the class,
	// and — if no entry existed when we looked — a publish candidate.
	ds.localRep[cls.id] = localSrc{p: p, fp: fp}
	if entry == nil {
		ds.pubs = append(ds.pubs, pubCand{cls: cls, p: p, fp: fp})
	}
	ds.misses.Add(1)
	return nil
}

// entryPlan builds the serving plan from a stored entry, or nil when
// the entry cannot serve p:
//
//   - KeepIntermediates needs the publisher's raw constraint set under
//     the identical register assignment (raw local names embed actual
//     registers);
//   - every CalleeNamed call target must resolve the same way here
//     (program procedure vs external) as it did for the publisher —
//     equal encodings guarantee equal names at named sites, but not
//     equal resolution, and generation models the two differently.
//     Targets classified in this run are CalleeClass sites (callees
//     are classified in strictly earlier levels, so classOf is final
//     for them) and carry their identity in the encoding itself.
func (ds *dedupState) entryPlan(p string, fp *bodyfp.FP, e *bodyEntry, isProc func(string) bool) *memberPlan {
	if ds.keep && (e.raw == nil || !fp.SameRegisters(e.fp)) {
		return nil
	}
	repCalls, memCalls := e.fp.Calls(), fp.Calls()
	if len(repCalls) != len(memCalls) || len(e.namedProc) != len(repCalls) {
		return nil // cannot happen for equivalent encodings; stay safe
	}
	pairs := make([]absint.CallRename, len(repCalls))
	for i := range repCalls {
		if repCalls[i].Inst != memCalls[i].Inst {
			return nil
		}
		if _, classed := ds.classOf[memCalls[i].Target]; !classed {
			if isProc(memCalls[i].Target) != e.namedProc[i] {
				return nil
			}
		}
		pairs[i] = absint.CallRename{
			Inst: repCalls[i].Inst,
			From: repCalls[i].Target,
			To:   memCalls[i].Target,
		}
	}
	ren := absint.NewRenamer(e.rep, p, pairs, isProc)
	if !ren.Valid() {
		return nil
	}
	return &memberPlan{rep: e.rep, fp: fp, ren: ren, entry: e}
}

// localPlan builds the in-program translation plan from this run's
// representative, or nil when the member must run the full path.
func (ds *dedupState) localPlan(p string, fp *bodyfp.FP, rep localSrc, isProc func(string) bool) *memberPlan {
	if ds.keep && !fp.SameRegisters(rep.fp) {
		// KeepIntermediates retains the raw generated constraint set,
		// whose local names embed actual register names; translating it
		// across a scratch-register renaming would need name surgery
		// inside defVar suffixes. Rare enough to just compute fully.
		return nil
	}
	repCalls, memCalls := rep.fp.Calls(), fp.Calls()
	if len(repCalls) != len(memCalls) {
		return nil // cannot happen for equivalent encodings; stay safe
	}
	pairs := make([]absint.CallRename, len(repCalls))
	for i := range repCalls {
		if repCalls[i].Inst != memCalls[i].Inst {
			return nil
		}
		pairs[i] = absint.CallRename{
			Inst: repCalls[i].Inst,
			From: repCalls[i].Target,
			To:   memCalls[i].Target,
		}
	}
	ren := absint.NewRenamer(rep.p, p, pairs, isProc)
	if !ren.Valid() {
		return nil
	}
	return &memberPlan{rep: rep.p, fp: fp, ren: ren}
}

// publish files the run's publish candidates into their classes (first
// publisher wins). Called only after the whole pipeline succeeded, so
// entries never expose partial results; everything shared is sealed
// before the entry becomes reachable.
func (ds *dedupState) publish(pl *pipeline, prog *asm.Program) {
	for _, pc := range ds.pubs {
		idx, ok := pl.procIdx[pc.p]
		if !ok || pl.prs[idx] == nil || pl.schemes[idx] == nil {
			continue
		}
		pr := pl.prs[idx]
		e := &bodyEntry{
			rep:       pc.p,
			fp:        pc.fp,
			namedProc: make([]bool, len(pc.fp.Calls())),
			scheme:    pl.schemes[idx],
		}
		for i, c := range pc.fp.Calls() {
			_, e.namedProc[i] = prog.ProcIndex[c.Target]
		}
		if pr.Sketch != nil {
			e.sk = pr.Sketch.Seal()
		}
		if g := pl.gens[idx]; g != nil {
			e.raw = g.Constraints
		}
		if n := len(pl.obs[idx]); n > 0 {
			e.obs = make([]entryObs, n)
			for i, o := range pl.obs[idx] {
				sk := o.sk
				if sk != nil {
					sk = sk.Seal()
				}
				e.obs[i] = entryObs{inst: o.inst, loc: o.key.loc, sk: sk}
			}
		}
		ds.cache.setEntry(pc.cls, e)
	}
}

// keepMemberRaw gives a served member its raw constraint set under
// KeepIntermediates. When the rename surgery classifies every base of
// src, the translation is deferred to the set's first read
// (ProcResult.Constraints): no op output needs it, and running it here
// would intern every member-local name into the process-wide table.
// Otherwise the member regenerates its set eagerly — sound because its
// F.1 was ordered after its callee SCCs like any other procedure's.
func (pl *pipeline) keepMemberRaw(pr *ProcResult, plan *memberPlan, src *constraints.Set) {
	if !pl.opts.KeepIntermediates {
		return
	}
	if d := plan.ren.Defer(src); d != nil {
		pr.rawDeferred = d
		return
	}
	pr.raw = absint.Generate(pl.infos[pr.Name], pl.infos, pl.schemeOf, pl.sums, pl.isConst, pl.opts.Absint).Constraints
}

// translateProc derives a member's phase-2 result from its in-program
// representative's: the sketch is shared (sealed — sketches mention no
// variable names, so the representative's solution IS the member's),
// callsite-actual observations are re-keyed to the member's own callee
// names, and under KeepIntermediates the raw constraint set is
// translated on first read (see keepMemberRaw).
func (pl *pipeline) translateProc(p string, plan *memberPlan, repPR *ProcResult, repObs []actualObs) (*ProcResult, []actualObs) {
	pi := pl.infos[p]
	sk := repPR.Sketch
	if sk != nil {
		sk = sk.Seal()
	}
	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         pl.schemes[pl.procIdx[p]],
		Sketch:         sk,
		SpecializedIns: map[string]*sketch.Sketch{},
	}
	pl.keepMemberRaw(pr, plan, pl.gens[pl.procIdx[plan.rep]].Constraints)
	if len(repObs) == 0 {
		return pr, nil
	}
	calleeAt := make(map[int]string, len(plan.fp.Calls()))
	for _, c := range plan.fp.Calls() {
		calleeAt[c.Inst] = c.Target
	}
	obs := make([]actualObs, len(repObs))
	for i, o := range repObs {
		obs[i] = actualObs{
			key:    actualKey{callee: calleeAt[o.inst], loc: o.key.loc},
			caller: p,
			inst:   o.inst,
			sk:     o.sk,
		}
	}
	return pr, obs
}

// translateEntry derives a member's phase-2 result from a stored body
// entry — the cross-program analogue of translateProc. The entry's
// sketches are already sealed; under KeepIntermediates the publisher's
// raw set (whose presence entryPlan verified) is translated on first
// read, like translateProc's.
func (pl *pipeline) translateEntry(p string, plan *memberPlan) (*ProcResult, []actualObs) {
	pi := pl.infos[p]
	e := plan.entry
	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         pl.schemes[pl.procIdx[p]],
		Sketch:         e.sk,
		SpecializedIns: map[string]*sketch.Sketch{},
	}
	pl.keepMemberRaw(pr, plan, e.raw)
	if len(e.obs) == 0 {
		return pr, nil
	}
	calleeAt := make(map[int]string, len(plan.fp.Calls()))
	for _, c := range plan.fp.Calls() {
		calleeAt[c.Inst] = c.Target
	}
	obs := make([]actualObs, len(e.obs))
	for i, o := range e.obs {
		obs[i] = actualObs{
			key:    actualKey{callee: calleeAt[o.inst], loc: o.loc},
			caller: p,
			inst:   o.inst,
			sk:     o.sk,
		}
	}
	return pr, obs
}
