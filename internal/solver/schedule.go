package solver

import (
	"sort"
	"strconv"
	"sync/atomic"

	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/conc"
)

// sccLevels computes the topological levels of the condensed call
// graph: level(S) = 1 + max(level of S's callee SCCs), with leaf SCCs
// at level 0. SCCs within one level have no call edges between them
// (an edge always crosses to a strictly lower level), so concatenating
// the levels yields a valid bottom-up order compatible with the
// sequential one.
//
// The readiness scheduler below does not run level-by-level — it
// tracks per-SCC dependencies, so a straggler only blocks its true
// ancestors — but levels remain the deterministic order of the body-
// dedup classification pre-pass (representatives must not depend on
// scheduling; see classifyBodies) and the reference partition the
// scheduler's property tests check execution against.
//
// The input cg.SCCs is in bottom-up (callee-first) order, so every call
// edge from cg.SCCs[i] targets some cg.SCCs[j] with j < i and one
// forward pass suffices. Each returned level lists SCC indices in
// ascending order.
func sccLevels(cg *cfg.CallGraph) [][]int {
	sccOf := map[string]int{}
	for i, scc := range cg.SCCs {
		for _, p := range scc {
			sccOf[p] = i
		}
	}
	level := make([]int, len(cg.SCCs))
	maxLevel := -1
	for i, scc := range cg.SCCs {
		lv := 0
		for _, p := range scc {
			for _, callee := range cg.Callees[p] {
				j, ok := sccOf[callee]
				if !ok || j == i {
					continue // external or intra-SCC edge
				}
				if l := level[j] + 1; l > lv {
					lv = l
				}
			}
		}
		level[i] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	levels := make([][]int, maxLevel+1)
	for i := range cg.SCCs {
		levels[level[i]] = append(levels[level[i]], i)
	}
	return levels
}

// classifyBodies is the body-dedup classification pre-pass: fingerprint
// every eligible body and assign it a class — and, for non-first
// occurrences, a translation plan — before any scheduling happens.
// Classification depends only on body fingerprints and previously
// assigned callee classes, never on inferred schemes, so it can run
// entirely ahead of the pipeline; doing it here, sequentially in
// (level, in-level index) order, is what makes class representatives —
// and with them the whole pipeline output — independent of worker
// count, steal order, and injected delays. Only the fingerprint
// computation within one level fans out (classOf is not written while
// it runs).
//
// Body-equivalent procedures always share a topological level (their
// callee classes, hence their depths, coincide), so a representative
// is classified before every one of its members; the scheduler turns
// that into a member→representative readiness edge.
// Fingerprint items run under the run's panic containment (phase F.0)
// and the fan-out observes the run context, so classification aborts at
// an item boundary on fault or cancellation.
func (pl *pipeline) classifyBodies(cg *cfg.CallGraph) ([]*memberPlan, error) {
	plans := make([]*memberPlan, len(cg.SCCs))
	isProc := func(name string) bool {
		// Classification runs before the per-procedure analyses exist,
		// from the raw program alone.
		_, ok := cg.Prog.ProcIndex[name]
		return ok
	}
	for _, level := range sccLevels(cg) {
		fps := make([]*bodyfp.FP, len(level))
		err := conc.ForEachCtx(pl.ctx, pl.workers, len(level), func(i int) {
			scc := cg.SCCs[level[i]]
			pl.runGuarded("F.0", level[i], scc[0], func() {
				if len(scc) != 1 || !pl.dedup.eligible(scc[0], cg) {
					return
				}
				fps[i] = bodyfp.Compute(cg.Prog.ProcIndex[scc[0]], pl.dedup.conf, pl.dedup.calleeID)
			})
		})
		if err != nil {
			return plans, err
		}
		for i := range level {
			if fps[i] != nil {
				plans[level[i]] = pl.dedup.classify(cg.SCCs[level[i]][0], fps[i], isProc)
			}
		}
	}
	return plans, nil
}

// schedGraph is the per-run readiness graph the F.1/F.2 pipeline
// executes on. Every SCC carries a pending count of unfinished
// dependencies (its callee SCCs, plus its dedup representative's SCC
// when it is served by translation); workers pull ready tasks from the
// work-stealing pool, and completing an SCC's F.1 decrements its
// callers' counts — no level barrier, so a straggler SCC only ever
// blocks its true ancestors. The moment a procedure's F.1 scheme is
// published, its F.2 sketch solving becomes ready (dedup members
// additionally wait for their representative's F.2, whose result they
// translate), so sketch solving of finished subtrees overlaps scheme
// inference of upper regions.
//
// Counters are atomic; the executor's queue transfer provides the
// happens-before edge from a completed dependency's writes (scheme,
// gens, fps, prs, obs slots — all distinct slice elements owned by one
// task) to the dependent task's reads.
//
// Incremental runs put only dirty SCCs on the graph. A clean SCC has
// nothing to compute: its schemes are pre-published from the session
// and its procedures replay their snapshots before the pool starts
// (pipeline.replayClean). Its transitive callees are all clean too, so
// it never waits on a dirty SCC, and the dirty SCCs it would gate are
// wired as if it had already completed.
type schedGraph struct {
	pl    *pipeline
	cg    *cfg.CallGraph
	plans []*memberPlan // per SCC; non-nil = dedup-member translation

	f1Pending []atomic.Int32 // per SCC: unfinished F.1 dependencies
	f1Callers [][]int        // per SCC: SCCs to signal on F.1 completion
	f2Pending []atomic.Int32 // per proc: unfinished F.2 gates
	f2Waiters [][]int        // per proc: member procs to signal on F.2 completion
}

// schedEvent is one observation of the readiness scheduler, emitted to
// the test-only Options.schedTrace seam. idx is an SCC index for F.1
// events and a procedure index (pipeline.procIdx) for F.2 events; aux
// is the representative's procedure index on evF2Translate and unused
// otherwise.
type schedEvent struct {
	kind int // evF1Start … evF2Translate
	idx  int
	aux  int
}

const (
	evF1Start     = iota // SCC F.1 task picked up
	evF1Done             // SCC schemes published, dependents about to be signaled
	evF2Start            // procedure F.2 task picked up
	evF2Done             // procedure result written, waiters about to be signaled
	evF2Translate        // F.2 served by dedup translation from representative aux
)

// trace emits ev when the test seam is installed.
func (s *schedGraph) trace(kind, idx, aux int) {
	if tr := s.pl.opts.schedTrace; tr != nil {
		tr(schedEvent{kind: kind, idx: idx, aux: aux})
	}
}

// buildSched wires the readiness graph for one run.
func (pl *pipeline) buildSched(cg *cfg.CallGraph, plans []*memberPlan) *schedGraph {
	n := len(cg.SCCs)
	s := &schedGraph{
		pl:        pl,
		cg:        cg,
		plans:     plans,
		f1Pending: make([]atomic.Int32, n),
		f1Callers: make([][]int, n),
		f2Pending: make([]atomic.Int32, len(pl.order)),
		f2Waiters: make([][]int, len(pl.order)),
	}
	sccOf := make(map[string]int, len(pl.order))
	for i, scc := range cg.SCCs {
		for _, p := range scc {
			sccOf[p] = i
		}
	}
	for i, scc := range cg.SCCs {
		if !s.scheduled(i) {
			continue
		}
		depSet := map[int]bool{}
		for _, p := range scc {
			for _, callee := range cg.Callees[p] {
				if j, ok := sccOf[callee]; ok && j != i && s.scheduled(j) {
					depSet[j] = true
				}
			}
		}
		if plans[i] != nil && plans[i].entry == nil {
			// The member's F.1 translates its representative's scheme.
			// Entry-served members translate a stored entry instead and
			// take no dependency on any SCC of this run (their rep name
			// belongs to the publishing program — a same-named local
			// procedure, should one exist, is unrelated).
			depSet[sccOf[plans[i].rep]] = true
		}
		deps := make([]int, 0, len(depSet))
		for j := range depSet {
			deps = append(deps, j)
		}
		sort.Ints(deps) // deterministic signal order (schedule hygiene)
		s.f1Pending[i].Store(int32(len(deps)))
		for _, j := range deps {
			s.f1Callers[j] = append(s.f1Callers[j], i)
		}
	}
	// F.2 gates: every procedure waits for its own F.1; a dedup member
	// also waits for its representative's F.2 result.
	for pi := range s.f2Pending {
		s.f2Pending[pi].Store(1)
	}
	for i := range cg.SCCs {
		if plans[i] == nil || plans[i].entry != nil {
			// Entry-served members translate the stored entry's sealed
			// results in their own F.2 — no gate beyond their own F.1.
			continue
		}
		mi := pl.procIdx[cg.SCCs[i][0]]
		ri := pl.procIdx[plans[i].rep]
		s.f2Pending[mi].Store(2)
		s.f2Waiters[ri] = append(s.f2Waiters[ri], mi)
	}
	return s
}

// scheduled reports whether SCC i runs on the graph: every SCC of a
// full run, only the dirty ones of an incremental run.
func (s *schedGraph) scheduled(i int) bool {
	return s.pl.inc == nil || s.pl.inc.dirty[s.cg.SCCs[i][0]]
}

// anyScheduled reports whether any SCC runs on the graph.
func (s *schedGraph) anyScheduled() bool {
	for i := range s.cg.SCCs {
		if s.scheduled(i) {
			return true
		}
	}
	return false
}

// run executes the graph to quiescence: seed the dependency-free SCCs,
// let completions cascade. The pool's worker count and any test hooks
// (schedtest perturbation) change only the schedule, never the output.
//
// The pool runs under the run context: a cancellation — the caller's or
// the one a contained task fault triggers — drains the pool at a task
// boundary and run returns ctx.Err() (the fault itself is recorded on
// the pipeline and resolved by finish). A faulted task signals no
// dependents, so even before the cancel watcher fires the pool can only
// shrink toward quiescence, never start work downstream of a fault.
func (s *schedGraph) run() error {
	if s.pl.inc != nil && !s.anyScheduled() {
		// A replay-only incremental run: no pool to start.
		return s.pl.ctx.Err()
	}
	return conc.RunPoolCtx(s.pl.ctx, s.pl.workers, s.pl.opts.SchedHooks, func(sub conc.Submitter) {
		for i := range s.cg.SCCs {
			if s.scheduled(i) && s.f1Pending[i].Load() == 0 {
				sub.Submit(s.f1Task(i))
			}
		}
	})
}

// f1Task returns the F.1 task of SCC i: infer (or translate) its
// schemes, then signal its procedures' F.2 gates and its caller
// SCCs. The task body runs guarded; on a fault nothing is signalled.
func (s *schedGraph) f1Task(i int) conc.Task {
	return conc.Task{
		Label: "F.1 scc=" + strconv.Itoa(i) + " proc=" + s.cg.SCCs[i][0],
		Run: func(sub conc.Submitter) {
			s.trace(evF1Start, i, 0)
			if !s.pl.runGuarded("F.1", i, s.cg.SCCs[i][0], func() { s.runF1(i) }) {
				return
			}
			s.trace(evF1Done, i, 0)
			for _, p := range s.cg.SCCs[i] {
				pi := s.pl.procIdx[p]
				if s.f2Pending[pi].Add(-1) == 0 {
					sub.Submit(s.f2Task(pi))
				}
			}
			for _, c := range s.f1Callers[i] {
				if s.f1Pending[c].Add(-1) == 0 {
					sub.Submit(s.f1Task(c))
				}
			}
		},
	}
}

// runF1 performs SCC i's scheme inference.
func (s *schedGraph) runF1(i int) {
	pl := s.pl
	scc := s.cg.SCCs[i]
	if plan := s.plans[i]; plan != nil {
		pl.runMemberF1(scc[0], plan)
		return
	}
	pl.publishSCC(scc, pl.inferSCC(scc))
}

// f2Task returns the F.2 task of procedure index pi: solve (or
// translate) its sketch, then signal any dedup members
// waiting to translate this procedure's result. The task body runs
// guarded; on a fault nothing is signalled.
func (s *schedGraph) f2Task(pi int) conc.Task {
	pl := s.pl
	p := pl.order[pi]
	return conc.Task{
		Label: "F.2 proc=" + p,
		Run: func(sub conc.Submitter) {
			s.trace(evF2Start, pi, 0)
			ok := pl.runGuarded("F.2", -1, p, func() {
				switch {
				case pl.memberOf[pi] != nil && pl.memberOf[pi].entry != nil:
					// Cross-program serve from a stored body entry; aux -1
					// marks that the source is no procedure of this run.
					s.trace(evF2Translate, pi, -1)
					pl.prs[pi], pl.obs[pi] = pl.translateEntry(p, pl.memberOf[pi])
				case pl.memberOf[pi] != nil:
					plan := pl.memberOf[pi]
					ri := pl.procIdx[plan.rep]
					s.trace(evF2Translate, pi, ri)
					pl.prs[pi], pl.obs[pi] = pl.translateProc(p, plan, pl.prs[ri], pl.obs[ri])
				default:
					// Includes members whose F.1 translation fell back to the
					// full path (memberOf stayed nil): they solve like any other
					// procedure; the leftover gate on the representative's F.2
					// only delayed, never blocked, this task.
					pl.prs[pi], pl.obs[pi] = pl.solveProc(p)
				}
			})
			if !ok {
				return
			}
			s.trace(evF2Done, pi, 0)
			// Seal before signalling: members share this sketch and would
			// otherwise race calling Seal on it concurrently (the shape
			// cache serves sketches pre-sealed, but cache-off and
			// fallback paths publish unsealed ones). The waiters' atomic
			// gate decrement orders this write before their reads.
			if len(s.f2Waiters[pi]) > 0 {
				if pr := pl.prs[pi]; pr != nil && pr.Sketch != nil {
					pr.Sketch.Seal()
				}
			}
			for _, w := range s.f2Waiters[pi] {
				if s.f2Pending[w].Add(-1) == 0 {
					sub.Submit(s.f2Task(w))
				}
			}
		},
	}
}
