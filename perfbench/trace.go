package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"retypd"
	"retypd/internal/absint"
	"retypd/internal/asm"
	"retypd/internal/bodyfp"
	"retypd/internal/cfg"
	"retypd/internal/constraints"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/pgraph"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// span is one timed interval of a traced op. Spans of one op share Op;
// Parent names the enclosing span ("" for a root).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Laps, when above one, is the number of separate intervals summed
	// into this span; it then covers their total time from the first.
	Laps int `json:"laps,omitempty"`
}

// tracer records spans and counters of a traced run, in memory; finish
// writes them out.
type tracer struct {
	t0    time.Time
	spans []span
	// sums and counts accumulate per-op counters, keyed by metric name.
	sums   map[string]float64
	counts map[string]int
	ops    int
	// probeW1 and probeWn are the fresh-engine Infer times at one worker
	// and at nproc workers of the probed ops.
	probeW1, probeWn []time.Duration
	exponent         float64
	file             string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]float64{}, counts: map[string]int{}}
}

// opSpans records the spans of one op. A nil *opSpans records nothing,
// so untraced ops pay only a nil check.
type opSpans struct {
	tr *tracer
	op int
}

func (t *tracer) op(i int) *opSpans { return &opSpans{tr: t, op: i} }

func noop() {}

// begin opens a span; the returned function closes it.
func (s *opSpans) begin(name, parent string) func() {
	if s == nil {
		return noop
	}
	start := time.Since(s.tr.t0)
	return func() {
		s.tr.spans = append(s.tr.spans, span{Op: s.op, Name: name, Parent: parent, Start: int64(start), End: int64(time.Since(s.tr.t0))})
	}
}

// size records a file's size in MB under name.
func (s *opSpans) size(name, path string) {
	if s == nil {
		return
	}
	if st, err := os.Stat(path); err == nil {
		s.tr.add(name, float64(st.Size())/mb)
	}
}

// add accumulates one observation of a per-layer counter.
func (t *tracer) add(name string, v float64) {
	t.sums[name] += v
	t.counts[name]++
}

// timed runs f as a span of op i.
func (t *tracer) timed(i int, name, parent string, f func()) time.Duration {
	s := t.op(i)
	start := time.Now()
	end := s.begin(name, parent)
	f()
	end()
	return time.Since(start)
}

// afterOp runs after a traced op's span has closed: it reads the op's
// counters, replays its program layer by layer, and on the first op of
// each traced block probes worker scaling and persistence.
func (t *tracer) afterOp(b *bench, i int, out *opResult) error {
	t.ops++
	cs := out.res.CacheStats()
	procs := float64(len(out.prog.Procs))
	t.add("asm.insts", float64(out.insts))
	t.add("ctype.signatures", float64(len(out.sigs)))
	t.add("solver.body_hit_ratio", float64(cs.BodyDedupHits+cs.BodyDedupCrossHits)/procs)
	t.add("solver.cross_hit_ratio", float64(cs.BodyDedupCrossHits)/procs)
	t.add("solver.replay_ratio", float64(cs.ReplayedProcs)/procs)
	computed := cs.RecomputedProcs
	if cs.ReplayedProcs+cs.RecomputedProcs == 0 {
		computed = uint64(procs) - cs.BodyDedupHits - cs.BodyDedupCrossHits
	}
	t.add("solver.recomputed_per_op", float64(computed))
	t.sums["scheme.hits"] += float64(cs.SchemeHits)
	t.sums["scheme.lookups"] += float64(cs.SchemeHits + cs.SchemeMisses)
	t.sums["shape.hits"] += float64(cs.ShapeHits)
	t.sums["shape.lookups"] += float64(cs.ShapeHits + cs.ShapeMisses)
	schemes, shapes := b.wl.engine().CacheLen()
	t.add("solver.scheme_entries", float64(schemes))
	t.add("solver.shape_entries", float64(shapes))

	replay(t, i, out.prog)

	if i%b.wl.block() != 0 {
		return nil
	}
	return t.probe(b, i, out.src)
}

// probe infers the op's program on fresh default engines at one worker
// and at nproc workers (conc.*). On cold, whose ops never persist
// anything, it also times persisting and reloading the nproc engine;
// fleet and edit measure persistence at their own restarts.
func (t *tracer) probe(b *bench, i int, src string) error {
	prog, err := retypd.ParseAsm(src)
	if err != nil {
		return err
	}
	var engs [2]*retypd.Engine
	for k, workers := range []int{1, b.nproc} {
		eng := retypd.NewEngine(nil)
		var ierr error
		runtime.GC() // neither side pays for the other's garbage
		d := t.timed(i, fmt.Sprintf("conc.w%d_infer", workers), "probe", func() {
			_, ierr = eng.InferContext(b.ctx, prog, &retypd.Config{Workers: workers})
		})
		if ierr != nil {
			return ierr
		}
		if k == 0 {
			t.probeW1 = append(t.probeW1, d)
		} else {
			t.probeWn = append(t.probeWn, d)
		}
		engs[k] = eng
	}
	if b.cfg.workload != "cold" {
		return nil
	}
	if err := t.cacheProbe(b, i, engs[1]); err != nil {
		return err
	}
	return t.sessionProbe(b, engs[1])
}

// cacheProbe times SaveCache and LoadCache of eng.
func (t *tracer) cacheProbe(b *bench, i int, eng *retypd.Engine) error {
	path := b.path("probe.cache")
	var err error
	t.timed(i, "solver.save_cache", "probe", func() { err = eng.SaveCache(path) })
	if err != nil {
		return err
	}
	t.op(i).size("solver.cache_mb", path)
	t.timed(i, "solver.load_cache", "probe", func() { _, err = retypd.LoadCache(path) })
	return err
}

// sessionProbe times SaveSession and LoadSession of eng.
func (t *tracer) sessionProbe(b *bench, eng *retypd.Engine) error {
	path := b.path("probe.session")
	var err error
	t.timed(-1, "solver.save_session", "probe", func() { err = eng.SaveSession(path) })
	if err != nil {
		return err
	}
	t.op(-1).size("solver.session_mb", path)
	t.timed(-1, "solver.load_session", "probe", func() { _, err = retypd.LoadSession(path, b.engCfg) })
	return err
}

// replay runs the layer functions of one program in pipeline order,
// sequentially and with no memo, as spans of op i under "replay", and
// returns the core's (absint + pgraph + sketch) time. The work counters
// of each layer are recorded for ops (i >= 0), not for the size-ladder
// programs of the core-time fit.
func replay(t *tracer, i int, prog *asm.Program) time.Duration {
	add := t.add
	if i < 0 {
		add = func(string, float64) {}
	}
	lat := lattice.Default()
	sums := summaries.Default()
	sp := t.op(i)
	endReplay := sp.begin("replay", "")
	// The core layers interleave per SCC; each layer's laps are summed
	// into one span per op that starts at its first lap.
	type acc struct {
		start, total time.Duration
		laps         int
	}
	laps := map[string]*acc{}
	var order []string
	lap := func(name string, f func()) {
		start := time.Since(t.t0)
		f()
		d := time.Since(t.t0) - start
		a := laps[name]
		if a == nil {
			a = &acc{start: start}
			laps[name] = a
			order = append(order, name)
		}
		a.total += d
		a.laps++
	}

	var cg *cfg.CallGraph
	var infos map[string]*cfg.ProcInfo
	lap("cfg.analyze", func() {
		cg = cfg.BuildCallGraph(prog)
		infos = cfg.AnalyzeProgram(prog)
	})
	maxSCC := 0
	for _, scc := range cg.SCCs {
		maxSCC = max(maxSCC, len(scc))
	}
	add("cfg.procs", float64(len(prog.Procs)))
	add("cfg.sccs", float64(len(cg.SCCs)))
	add("cfg.max_scc", float64(maxSCC))

	classes := 0
	lap("bodyfp.compute", func() { classes = classify(prog, cg, lat) })
	add("bodyfp.classes_per_proc", float64(classes)/float64(len(prog.Procs)))

	isConst := func(v constraints.Var) bool {
		_, ok := lat.Elem(string(v))
		return ok
	}
	schemes := map[string]*constraints.Scheme{}
	lookup := func(name string) *constraints.Scheme { return schemes[name] }
	gens := map[string]*absint.Result{}
	var ncons, nodes, schemeCons int
	for _, scc := range cg.SCCs {
		sccCs := constraints.NewSet()
		lap("absint.generate", func() {
			for _, p := range scc {
				gr := absint.Generate(infos[p], infos, lookup, sums, isConst, absint.Options{})
				gens[p] = gr
				sccCs.InsertAll(gr.Constraints)
			}
		})
		ncons += sccCs.Len()
		lap("pgraph.fingerprint", func() { pgraph.Fingerprint(sccCs, lat) })
		var g *pgraph.Graph
		lap("pgraph.saturate", func() {
			g = pgraph.Build(sccCs, lat)
			g.Saturate()
		})
		nodes += g.NumNodes()
		lap("pgraph.simplify", func() {
			for _, p := range scc {
				root := constraints.Var(p)
				simp := g.Simplify(func(v constraints.Var) bool { return v == root })
				schemes[p] = &constraints.Scheme{Root: root, Constraints: simp.Constraints, Existential: simp.Existential}
				schemeCons += simp.Constraints.Len()
			}
		})
		g.Release()
	}
	states := 0
	for _, p := range prog.Procs {
		gr := gens[p.Name]
		v := constraints.Var(p.Name)
		var sk *sketch.Sketch
		var sb *sketch.Builder
		lap("sketch.solve", func() {
			sb = sketch.NewBuilder(gr.Constraints, lat)
			sk = sb.SketchFor(v, -1)
		})
		lap("sketch.decorate", func() {
			g := pgraph.Build(gr.Constraints, lat)
			dec := sketch.NewDecorator(g)
			dec.Decorate(sk, v)
			dec.Release()
			g.Release()
		})
		sb.Release()
		states += sk.Size()
	}
	var core time.Duration
	for _, name := range order {
		a := laps[name]
		t.spans = append(t.spans, span{Op: i, Name: name, Parent: "replay", Start: int64(a.start), End: int64(a.start + a.total), Laps: a.laps})
		if name != "cfg.analyze" && name != "bodyfp.compute" {
			core += a.total
		}
	}
	endReplay()
	add("absint.constraints", float64(ncons))
	add("pgraph.nodes", float64(nodes))
	add("pgraph.scheme_constraints", float64(schemeCons))
	add("sketch.states", float64(states))
	return core
}

// classify fingerprints every procedure eligible for body dedup
// (single-procedure SCCs without self-calls), bottom-up so callers see
// their callees' classes, and returns the number of distinct classes.
func classify(prog *asm.Program, cg *cfg.CallGraph, lat *lattice.Lattice) int {
	conf := bodyfp.Config{LatticeSig: lat.Signature()}
	classOf := map[string]uint64{}
	byHash := map[uint64][]*bodyfp.FP{}
	ids := map[*bodyfp.FP]uint64{}
	calleeID := func(target string) (bodyfp.CalleeID, bool) {
		if id, ok := classOf[target]; ok {
			return bodyfp.CalleeID{Kind: bodyfp.CalleeClass, ID: id}, true
		}
		return bodyfp.CalleeID{Kind: bodyfp.CalleeNamed, Name: target}, true
	}
	n := uint64(0)
	for _, scc := range cg.SCCs {
		if len(scc) != 1 {
			continue
		}
		p := scc[0]
		self := false
		for _, c := range cg.Callees[p] {
			self = self || c == p
		}
		proc, _ := prog.Proc(p)
		if self || proc == nil {
			continue
		}
		fp := bodyfp.Compute(proc, conf, calleeID)
		if fp == nil {
			continue
		}
		id, found := uint64(0), false
		for _, other := range byHash[fp.Hash()] {
			if fp.EquivalentTo(other) {
				id, found = ids[other], true
				break
			}
		}
		if !found {
			n++
			id = n
			byHash[fp.Hash()] = append(byHash[fp.Hash()], fp)
			ids[fp] = id
		}
		classOf[p] = id
	}
	return int(n)
}

// finish fits the core's time against program size over cold's size
// mix and writes the spans out.
func (t *tracer) finish(b *bench) error {
	var xs, ys []float64
	for k, size := range coldSizes {
		for rep := int64(0); rep < 2; rep++ {
			gen := corpus.Generate("ladder", b.cfg.seed*7919+int64(k)*31+rep, size)
			prog, err := retypd.ParseAsm(gen.Source)
			if err != nil {
				return err
			}
			runtime.GC()
			core := replay(t, -2, prog)
			xs = append(xs, math.Log(float64(prog.NumInsts())))
			ys = append(ys, math.Log(core.Seconds()))
		}
	}
	t.exponent = slope(xs, ys)

	t.file = filepath.Join(b.cfg.work, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	data, err := json.Marshal(map[string]any{"spans": t.spans, "self_ms": t.selfMS()})
	if err != nil {
		return err
	}
	return os.WriteFile(t.file, data, 0o644)
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for k := range xs {
		sx += xs[k]
		sy += ys[k]
		sxx += xs[k] * xs[k]
		sxy += xs[k] * ys[k]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// selfMS is each span name's total self time in ms: its spans' duration
// minus the part covered by their child spans.
func (t *tracer) selfMS() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start) / 1e6
	}
	for _, s := range t.spans {
		if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= float64(s.End-s.Start) / 1e6
		}
	}
	return self
}

// spanMean is the mean duration in ms of the spans named name, over the
// ops that recorded one.
func (t *tracer) spanMean(name string) float64 {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// metrics assembles the per-layer metrics of a traced run.
func (t *tracer) metrics(b *bench) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	mean := func(name string) float64 {
		if t.counts[name] == 0 {
			return 0
		}
		return t.sums[name] / float64(t.counts[name])
	}
	ratio := func(a, b string) float64 {
		if t.sums[b] == 0 {
			return 0
		}
		return t.sums[a] / t.sums[b]
	}
	// Layer times are means per replayed op, so they add up; the
	// replay's spans are the self times of its layers.
	perOp := func(name string) float64 {
		var sum float64
		for _, s := range t.spans {
			if s.Name == name && s.Op >= 0 {
				sum += float64(s.End-s.Start) / 1e6
			}
		}
		return sum / float64(max(1, t.ops))
	}
	put("asm.parse_ms", t.spanMean("asm.parse"), "ms")
	put("asm.insts", mean("asm.insts"), "count")
	put("cfg.analyze_ms", perOp("cfg.analyze"), "ms")
	put("cfg.procs", mean("cfg.procs"), "count")
	put("cfg.sccs", mean("cfg.sccs"), "count")
	put("cfg.max_scc", mean("cfg.max_scc"), "count")
	put("bodyfp.compute_ms", perOp("bodyfp.compute"), "ms")
	put("bodyfp.classes_per_proc", mean("bodyfp.classes_per_proc"), "ratio")
	put("absint.generate_ms", perOp("absint.generate"), "ms")
	put("absint.constraints", mean("absint.constraints"), "count")
	put("pgraph.fingerprint_ms", perOp("pgraph.fingerprint"), "ms")
	put("pgraph.saturate_ms", perOp("pgraph.saturate"), "ms")
	put("pgraph.nodes", mean("pgraph.nodes"), "count")
	put("pgraph.simplify_ms", perOp("pgraph.simplify"), "ms")
	put("pgraph.scheme_constraints", mean("pgraph.scheme_constraints"), "count")
	put("pgraph.scheme_hit_ratio", ratio("scheme.hits", "scheme.lookups"), "ratio")
	put("sketch.solve_ms", perOp("sketch.solve"), "ms")
	put("sketch.decorate_ms", perOp("sketch.decorate"), "ms")
	put("sketch.states", mean("sketch.states"), "count")
	put("sketch.shape_hit_ratio", ratio("shape.hits", "shape.lookups"), "ratio")
	put("solver.infer_ms", t.spanMean("solver.infer"), "ms")
	put("solver.body_hit_ratio", mean("solver.body_hit_ratio"), "ratio")
	put("solver.cross_hit_ratio", mean("solver.cross_hit_ratio"), "ratio")
	put("solver.replay_ratio", mean("solver.replay_ratio"), "ratio")
	put("solver.recomputed_per_op", mean("solver.recomputed_per_op"), "count")
	put("solver.save_cache_ms", t.spanMean("solver.save_cache"), "ms")
	put("solver.load_cache_ms", t.spanMean("solver.load_cache"), "ms")
	put("solver.cache_mb", mean("solver.cache_mb"), "MB")
	put("solver.save_session_ms", t.spanMean("solver.save_session"), "ms")
	put("solver.load_session_ms", t.spanMean("solver.load_session"), "ms")
	put("solver.session_mb", mean("solver.session_mb"), "MB")
	put("solver.scheme_entries", mean("solver.scheme_entries"), "count")
	put("solver.shape_entries", mean("solver.shape_entries"), "count")
	put("ctype.render_ms", t.spanMean("ctype.render"), "ms")
	put("ctype.signatures", mean("ctype.signatures"), "count")
	var w1, wn time.Duration
	for k := range t.probeW1 {
		w1 += t.probeW1[k]
		wn += t.probeWn[k]
	}
	put("conc.w1_infer_ms", ms(w1)/float64(max(1, len(t.probeW1))), "ms")
	put("conc.speedup", float64(w1)/float64(max(1, wn)), "ratio")
	ops := float64(len(b.lat))
	put("intern.syms_per_op", float64(b.syms)/ops, "count")
	put("intern.dtvs_per_op", float64(b.dtvs)/ops, "count")
	put("runtime.gc_per_op", float64(b.gcs)/ops, "count")
	put("runtime.gc_pause_ms", ms(b.gcPause)/ops, "ms")
	put("core.time_exponent", t.exponent, "exponent")
	traced, _ := quantile(b.latTraced, 0.5)
	plain, _ := quantile(b.latPlain, 0.5)
	put("trace.overhead_ms", ms(traced)-ms(plain), "ms")
	return out
}
