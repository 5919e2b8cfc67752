package main

import (
	"fmt"
	"math/rand"
	"strings"

	"retypd"
	"retypd/internal/cfg"
	"retypd/internal/corpus"
)

// edit: one long-lived engine holds a 16k-instruction program; its
// initial Infer is set-up. A seeded stream of one-procedure edits
// follows, each followed by ReanalyzeContext. The edit kinds are the
// three dirty-set seeds of docs/ARCHITECTURE.md: a body change, a new
// callee plus a call to it, and a call-graph change that alters an SCC.
// Nothing ranks one kind above another, so each is drawn with equal
// weight; the stamp records how many of each a run made.
//
// Every editRestart edits the process restarts: SaveSession and
// SaveCache, then LoadSession plus LoadCacheFile, charged to the next op.
// The period keeps restarts under 5% of the ops, so that op_p90_ms is
// the tail of the edits themselves, not of the restarts, whose loads the
// traced run reports as solver.load_session_ms and solver.load_cache_ms.
//
// The warm-up makes one restart and then one edit of each kind, so that
// no timed op is the first use of its code path.
const (
	editSize    = 16000
	editRestart = 20
)

var editKinds = []string{"body", "callee", "scc"}

// procText is one procedure of the edited program, as source lines.
type procText struct {
	name  string
	lines []string
}

type edit struct {
	base    *corpus.Benchmark
	procs   []*procText
	byName  map[string]*procText
	edges   [][2]string // direct calls a→b between single-procedure SCCs
	r       *rand.Rand
	callees int
	// loop is the SCC edit currently applied (a back edge b→a), undone
	// by the next SCC edit so SCCs do not grow along the stream.
	loop    *[2]string
	touched map[string]bool
	// eng is nil between the two halves of a restart.
	eng *retypd.Engine
	src string
	// kinds and restarts count the timed phase's edits and restarts.
	kinds    map[string]int
	restarts int
}

func (w *edit) block() int { return editRestart }

func (w *edit) params(ops int) map[string]any {
	return map[string]any{"size": editSize, "mix": editKinds, "edits_by_kind": w.kinds,
		"restart_every": editRestart, "restart_ops": w.restarts,
		"restart_share": float64(w.restarts) / float64(max(1, ops))}
}

func (w *edit) setup(b *bench) error {
	w.base = corpus.Generate("edit", b.cfg.seed, editSize)
	w.procs, w.byName = splitProcs(w.base.Source)
	prog, err := retypd.ParseAsm(w.base.Source)
	if err != nil {
		return err
	}
	cg := cfg.BuildCallGraph(prog)
	inCycle := map[string]bool{}
	for _, scc := range cg.SCCs {
		if len(scc) > 1 {
			for _, p := range scc {
				inCycle[p] = true
			}
		}
	}
	w.edges = nil
	for _, p := range prog.Procs {
		for _, q := range cg.Callees[p.Name] {
			if q != p.Name && !inCycle[p.Name] && !inCycle[q] {
				w.edges = append(w.edges, [2]string{p.Name, q})
			}
		}
	}
	if len(w.edges) == 0 {
		return fmt.Errorf("generated program has no call edges to edit")
	}
	w.r = rand.New(rand.NewSource(b.cfg.seed))
	w.callees, w.loop, w.touched = 0, nil, map[string]bool{}
	w.eng = retypd.NewEngine(nil)
	w.src = w.base.Source
	if _, err := b.runOp(nil, w.src, func(p *retypd.Program) (*retypd.Result, error) {
		return w.eng.InferContext(b.ctx, p, b.engCfg)
	}); err != nil {
		return fmt.Errorf("initial infer: %w", err)
	}
	if err := w.save(b, nil); err != nil {
		return fmt.Errorf("warm-up restart: %w", err)
	}
	if err := w.load(b, nil); err != nil {
		return fmt.Errorf("warm-up restart: %w", err)
	}
	for _, k := range editKinds {
		w.apply(k)
		if _, err := w.reanalyze(b, nil); err != nil {
			return fmt.Errorf("warm-up %s edit: %w", k, err)
		}
	}
	w.kinds, w.restarts = map[string]int{}, 0
	return nil
}

func (w *edit) prepare(b *bench, i int, sp *opSpans) error {
	if i > 0 && i%editRestart == 0 {
		if err := w.save(b, sp); err != nil {
			return err
		}
		w.restarts++
	}
	k := editKinds[w.r.Intn(len(editKinds))]
	w.kinds[k]++
	w.apply(k)
	return nil
}

func (w *edit) step(b *bench, i int, sp *opSpans) (*opResult, error) {
	if w.eng == nil {
		if err := w.load(b, sp); err != nil {
			return nil, err
		}
	}
	out, err := w.reanalyze(b, sp)
	if err != nil {
		return nil, err
	}
	// Scoring a 16k program on every edit would dominate the run; edits
	// leave most of the program alone, so the checked sample suffices.
	out.truth, out.sampleScore = w.untouchedTruth, true
	return out, nil
}

// save is the first half of a restart: the engine's session and cache
// go to disk, and the engine is dropped.
func (w *edit) save(b *bench, sp *opSpans) error {
	end := sp.begin("solver.save_session", "restart")
	err := w.eng.SaveSession(b.path("edit.session"))
	end()
	if err != nil {
		return fmt.Errorf("save session: %w", err)
	}
	end = sp.begin("solver.save_cache", "restart")
	err = w.eng.SaveCache(b.path("edit.cache"))
	end()
	if err != nil {
		return fmt.Errorf("save cache: %w", err)
	}
	sp.size("solver.session_mb", b.path("edit.session"))
	sp.size("solver.cache_mb", b.path("edit.cache"))
	w.eng = nil
	return nil
}

// load is the second half: a fresh engine from the saved session and
// cache.
func (w *edit) load(b *bench, sp *opSpans) error {
	end := sp.begin("solver.load_session", "op")
	eng, err := retypd.LoadSession(b.path("edit.session"), b.engCfg)
	end()
	if err != nil {
		return fmt.Errorf("load session: %w", err)
	}
	end = sp.begin("solver.load_cache", "op")
	err = eng.LoadCacheFile(b.path("edit.cache"))
	end()
	if err != nil {
		return fmt.Errorf("load cache: %w", err)
	}
	w.eng = eng
	return nil
}

func (w *edit) reanalyze(b *bench, sp *opSpans) (*opResult, error) {
	return b.runOp(sp, w.src, func(p *retypd.Program) (*retypd.Result, error) {
		return w.eng.ReanalyzeContext(b.ctx, p)
	})
}

func (w *edit) engine() *retypd.Engine { return w.eng }

// apply makes an edit of the given kind and re-renders the source.
func (w *edit) apply(kind string) {
	switch kind {
	case "body":
		p := w.procs[w.r.Intn(len(w.procs))]
		p.lines = append([]string{"xor edx, edx"}, p.lines...)
		w.touched[p.name] = true
	case "callee":
		w.callees++
		name := fmt.Sprintf("edit_callee_%d", w.callees)
		np := &procText{name: name, lines: []string{fmt.Sprintf("mov eax, %d", w.callees), "ret"}}
		w.procs = append(w.procs, np)
		w.byName[name] = np
		p := w.procs[w.r.Intn(len(w.procs)-1)]
		p.lines = append([]string{"call " + name}, p.lines...)
		w.touched[p.name] = true
	case "scc":
		if w.loop != nil {
			// Undo the previous back edge: the SCC splits again.
			b := w.byName[w.loop[1]]
			b.lines = removeFirst(b.lines, "call "+w.loop[0])
			w.loop = nil
		} else {
			e := w.edges[w.r.Intn(len(w.edges))]
			b := w.byName[e[1]]
			b.lines = append([]string{"call " + e[0]}, b.lines...)
			w.loop = &[2]string{e[0], e[1]}
			w.touched[e[0]], w.touched[e[1]] = true, true
		}
	}
	w.src = joinProcs(w.procs)
}

// untouchedTruth is the ground truth of every procedure no edit has
// touched yet; an edited body no longer matches its generator's truth.
func (w *edit) untouchedTruth() *corpus.Benchmark {
	t := &corpus.Benchmark{Name: w.base.Name}
	for _, v := range w.base.Truths {
		if !w.touched[v.Func] {
			t.Truths = append(t.Truths, v)
		}
	}
	return t
}

func splitProcs(src string) ([]*procText, map[string]*procText) {
	var procs []*procText
	byName := map[string]*procText{}
	var cur *procText
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "proc "):
			cur = &procText{name: strings.TrimSpace(strings.TrimPrefix(line, "proc "))}
		case line == "endproc":
			procs = append(procs, cur)
			byName[cur.name] = cur
			cur = nil
		case cur != nil && line != "":
			cur.lines = append(cur.lines, line)
		}
	}
	return procs, byName
}

func joinProcs(procs []*procText) string {
	var sb strings.Builder
	for _, p := range procs {
		sb.WriteString("proc " + p.name + "\n")
		for _, l := range p.lines {
			sb.WriteString("    " + l + "\n")
		}
		sb.WriteString("endproc\n\n")
	}
	return sb.String()
}

func removeFirst(lines []string, s string) []string {
	for i, l := range lines {
		if l == s {
			return append(lines[:i:i], lines[i+1:]...)
		}
	}
	return lines
}
