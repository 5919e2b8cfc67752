package solver

import (
	"strings"

	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/intern"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// Body deduplication is the pipeline's earliest memoization layer: it
// groups procedures whose IR bodies are equivalent (internal/bodyfp)
// *before* abstract interpretation, runs constraint generation,
// fingerprinting, scheme simplification and sketch solving once per
// class, and serves the representative's results to the other
// members. A simplified scheme is closed — it names only its root,
// lattice constants and its own existentials — so a member's scheme is
// the source's with the root swapped (constraints.Reroot), and the
// source's sealed sketch is shared as is. Where the scheme and
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
//     full-path run; the member is served them directly (no dependency
//     on any SCC of this run) and skips even the representative's work.
//  2. In-program representative: the first full-path member of this
//     run serves later members exactly as the per-run layer of PR 4–9
//     did, through a readiness edge to the representative's SCC.
//
// Eligibility is conservative: only single-member, non-self-recursive
// SCCs participate, and only when every name involved (the procedure
// and its call targets) stays clear of the solver's reserved variable
// namespaces. Everything else takes the full path — body dedup
// never changes output, only work (a golden on/off equivalence the
// tests pin down byte-for-byte).
type dedupState struct {
	conf    bodyfp.Config
	lat     *lattice.Lattice
	isConst func(constraints.Var) bool

	// cache is the engine's class table. Its mutex guards class
	// structure; everything below is this run's private view, written
	// only in the sequential classification pre-pass.
	cache *bodyCache

	// classOf assigns every fingerprinted procedure its class id — the
	// callee identity later levels mix into their own body hashes.
	classOf map[string]uint32
	// localRep maps a class to this run's first full-path member — the
	// in-program serving source (path 2). Entry-served members never
	// become localRep, so a path-2 source always ran the full path.
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

	// hits counts in-program serves (path 2), crossHits entry serves
	// (path 1), misses full-path procedures. A plan always serves, so
	// all three are counted in the sequential classification pre-pass.
	hits, misses, crossHits uint64
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

// memberPlan is everything needed to serve one dedup member: its
// source (a stored entry, or this run's representative) and the
// member's own fingerprint, whose call sites re-key the source's
// callsite observations to the member's callees.
type memberPlan struct {
	// rep is this run's representative (path 2; empty for path 1).
	rep string
	fp  *bodyfp.FP
	// entry is the stored body entry backing path 1 (nil for path 2).
	// Entry plans take no readiness dependency on any SCC of this run.
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
		lat:       lat,
		isConst:   isConst,
		cache:     cache,
		classOf:   map[string]uint32{},
		localRep:  map[uint32]localSrc{},
		anchor:    map[uint32]localSrc{},
		cloneFrom: map[string]string{},
	}
}

// nameEligible rejects names that could collide with the solver's
// variable namespaces: '¤' opens canonical fingerprint names, '.'
// starts a DTV path, 'τ' an existential, and '!' and '@' separate the
// parts of the variables absint mints (which all open with ';', a
// character no parsed name holds). A member named like a variable of
// its source's scheme could not be rerooted unambiguously.
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

// isConstSym reports whether y names a lattice constant: with the root
// and the existentials, the only base variables a closed scheme has.
func (ds *dedupState) isConstSym(y intern.Sym) bool {
	_, ok := ds.lat.ElemSym(y)
	return ok
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
// serving plan when p can be served — from a stored entry first, from
// this run's representative otherwise — or nil when p must run the
// full path. isProc identifies program-procedure names for the entry
// portability check.
func (ds *dedupState) classify(p string, fp *bodyfp.FP, isProc func(string) bool) *memberPlan {
	cls, entry := ds.cache.lookup(fp, ds.isConstSym)
	// Class membership (and with it the callee identity served to
	// callers) holds regardless of whether p is actually served below:
	// an excluded member computes the same scheme serving would have
	// produced.
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
	if entry != nil && ds.entryServes(fp, entry, isProc) {
		ds.crossHits++
		return &memberPlan{fp: fp, entry: entry}
	}

	// Path 2: this run's full-path representative.
	if rep, ok := ds.localRep[cls.id]; ok {
		if !sameCallSites(rep.fp, fp) {
			ds.misses++
			return nil
		}
		ds.hits++
		return &memberPlan{rep: rep.p, fp: fp}
	}

	// Full path. p becomes the run's serving source for the class,
	// and — if no entry existed when we looked — a publish candidate.
	ds.localRep[cls.id] = localSrc{p: p, fp: fp}
	if entry == nil {
		ds.pubs = append(ds.pubs, pubCand{cls: cls, p: p, fp: fp})
	}
	ds.misses++
	return nil
}

// entryServes reports whether stored entry e can serve the member
// with fingerprint fp: every CalleeNamed call target must resolve the
// same way here (program procedure vs external) as it did for the
// publisher — equal encodings guarantee equal names at named sites,
// but not equal resolution, and generation models the two differently.
// Targets classified in this run are CalleeClass sites (callees are
// classified in strictly earlier levels, so classOf is final for them)
// and carry their identity in the encoding itself.
func (ds *dedupState) entryServes(fp *bodyfp.FP, e *bodyEntry, isProc func(string) bool) bool {
	calls := fp.Calls()
	if !sameCallSites(e.fp, fp) || len(e.namedProc) != len(calls) {
		return false
	}
	for i, c := range calls {
		if _, classed := ds.classOf[c.Target]; !classed && isProc(c.Target) != e.namedProc[i] {
			return false
		}
	}
	return true
}

// sameCallSites reports whether two equivalent bodies call at the same
// instructions — which equal encodings imply; it is checked because
// the member's callees are looked up by the source's call sites.
func sameCallSites(a, b *bodyfp.FP) bool {
	ac, bc := a.Calls(), b.Calls()
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i].Inst != bc[i].Inst {
			return false
		}
	}
	return true
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

// serveMember derives a member's phase-2 result from its plan's
// source: the stored entry's sealed results (path 1), or the
// representative's this run (path 2). The sketch is shared (sealed —
// sketches mention no variable names, so the source's solution IS the
// member's), and callsite-actual observations are re-keyed to the
// member's own callee names.
func (pl *pipeline) serveMember(p string, plan *memberPlan) (*ProcResult, []actualObs) {
	var (
		sk  *sketch.Sketch
		src []entryObs
	)
	if e := plan.entry; e != nil {
		sk, src = e.sk, e.obs
	} else {
		ri := pl.procIdx[plan.rep]
		if sk = pl.prs[ri].Sketch; sk != nil {
			sk = sk.Seal()
		}
		src = make([]entryObs, len(pl.obs[ri]))
		for i, o := range pl.obs[ri] {
			src[i] = entryObs{inst: o.inst, loc: o.key.loc, sk: o.sk}
		}
	}
	pi := pl.infos[p]
	pr := &ProcResult{
		Name:           p,
		FormalIns:      pi.FormalIns,
		HasOut:         pi.HasOut,
		Scheme:         pl.schemes[pl.procIdx[p]],
		Sketch:         sk,
		SpecializedIns: map[string]*sketch.Sketch{},
	}
	if len(src) == 0 {
		return pr, nil
	}
	calleeAt := make(map[int]string, len(plan.fp.Calls()))
	for _, c := range plan.fp.Calls() {
		calleeAt[c.Inst] = c.Target
	}
	obs := make([]actualObs, len(src))
	for i, o := range src {
		obs[i] = actualObs{
			key:    actualKey{callee: calleeAt[o.inst], loc: o.loc},
			caller: p,
			inst:   o.inst,
			sk:     o.sk,
		}
	}
	return pr, obs
}
