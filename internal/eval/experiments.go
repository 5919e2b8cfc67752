package eval

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"retypd/internal/asm"
	"retypd/internal/baselines"
	"retypd/internal/conc"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/solver"
)

// Config scales the experiments.
type Config struct {
	// Suite controls corpus generation.
	Suite corpus.SuiteOptions
	// Fig11Sizes are the program sizes (instructions) swept by the
	// scaling experiments.
	Fig11Sizes []int
	// Parallelism is the solver worker count used by the scaling
	// harness (0 = one per CPU, 1 = sequential).
	Parallelism int
}

// DefaultConfig is laptop-sized.
func DefaultConfig() Config {
	return Config{
		Suite:      corpus.DefaultSuite(),
		Fig11Sizes: []int{1000, 2000, 4000, 8000, 16000, 32000, 64000},
	}
}

// QuickConfig is for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		Suite:      corpus.SuiteOptions{Scale: 300, MaxClusterMembers: 3, Seed: 20160613},
		Fig11Sizes: []int{500, 1000, 2000, 4000},
	}
}

// SuiteScores runs every system over the generated suite once.
type SuiteScores struct {
	Benches []*corpus.Benchmark
	// PerSystem maps system name to per-benchmark scores.
	PerSystem map[string][]BenchScore
	Order     []string
	// SchemeCacheHits/Misses and ShapeCacheHits/Misses report the
	// suite-wide effectiveness of the two shared memo caches.
	SchemeCacheHits, SchemeCacheMisses uint64
	ShapeCacheHits, ShapeCacheMisses   uint64
	// BodyDedupHits/Misses sum the solver runs' whole-body dedup stats
	// across every benchmark and solver-backed system of the suite.
	BodyDedupHits, BodyDedupMisses uint64
}

// RunSuite generates the corpus and scores all systems. One
// solver.Engine is shared across every Infer run of the suite (all
// benchmarks, both solver-based systems): its scheme and shape memos
// are keyed by canonical constraint-set fingerprints (see the sharing
// contracts on pgraph.SimplifyCache and sketch.ShapeCache), so
// duplicate leaf procedures are simplified and shape-solved once for
// the whole suite instead of once per benchmark.
func RunSuite(cfg Config) *SuiteScores {
	lat := lattice.Default()
	benches := corpus.GenerateSuite(cfg.Suite)
	eng := solver.NewEngine(0, 0)
	// The suite never re-analyzes an edited program; the engine is a
	// pure cache sharer here, so skip per-run session snapshots.
	eng.DisableSessionRecording()
	systems := []baselines.System{
		baselines.RetypdEngine(eng),
		baselines.TIEStyleEngine(eng),
		baselines.RewardsStyle(0.6),
		baselines.Unify(),
	}
	out := &SuiteScores{Benches: benches, PerSystem: map[string][]BenchScore{}}
	for _, sys := range systems {
		scores := RunSystem(sys, benches, lat)
		SortScores(scores)
		out.PerSystem[sys.Name] = scores
		out.Order = append(out.Order, sys.Name)
		for _, s := range scores {
			out.BodyDedupHits += s.BodyDedupHits
			out.BodyDedupMisses += s.BodyDedupMisses
		}
	}
	out.SchemeCacheHits, out.SchemeCacheMisses = eng.SchemeCache().Stats()
	out.ShapeCacheHits, out.ShapeCacheMisses = eng.ShapeCache().Stats()
	return out
}

// Figure7 renders the benchmark inventory table.
func Figure7(cfg Config) string {
	benches := corpus.GenerateSuite(cfg.Suite)
	t := &Table{
		Title:   "Figure 7 — benchmark suite (paper sizes scaled by 1/" + fmt.Sprint(cfg.Suite.Scale) + ")",
		Headers: []string{"benchmark", "cluster", "instructions", "procs(truth vars)"},
	}
	for _, b := range benches {
		t.AddRow(b.Name, b.Cluster, fmt.Sprint(b.Insts), fmt.Sprint(len(b.Truths)))
	}
	return t.String()
}

// groupOf selects the Figure 8/9 benchmark groups.
func groupScores(scores []BenchScore, group string) []BenchScore {
	switch group {
	case "coreutils":
		return Filter(scores, func(s BenchScore) bool { return s.Cluster == "coreutils" })
	case "SPEC2006":
		return Filter(scores, func(s BenchScore) bool { return isSpec(s.Bench) })
	default:
		return scores
	}
}

// Figure8 renders mean distance and interval size per system per group
// (paper: Retypd 0.54/1.2 overall vs TIE 1.58/2.0, REWARDS 1.53,
// SecondWrite 1.70/1.7).
func Figure8(s *SuiteScores) string {
	t := &Table{
		Title:   "Figure 8 — distance to ground truth and interval size",
		Headers: []string{"system", "group", "distance", "interval"},
	}
	for _, group := range []string{"coreutils", "SPEC2006", "All"} {
		for _, name := range s.Order {
			g := ClusterAverage(groupScores(s.PerSystem[name], group))
			t.AddRow(name, group, num2(g.Distance), num2(g.Interval))
		}
	}
	return t.String()
}

// Figure9 renders conservativeness and pointer accuracy (paper:
// Retypd 95% / 88% overall, SecondWrite pointer accuracy 73%).
func Figure9(s *SuiteScores) string {
	t := &Table{
		Title:   "Figure 9 — conservativeness and multi-level pointer accuracy",
		Headers: []string{"system", "group", "conservativeness", "pointer accuracy"},
	}
	for _, group := range []string{"coreutils", "SPEC2006", "All"} {
		for _, name := range s.Order {
			g := ClusterAverage(groupScores(s.PerSystem[name], group))
			t.AddRow(name, group, pct(g.Conserv), pct(g.PtrAcc))
		}
	}
	return t.String()
}

// Figure10 renders the per-cluster table plus the clustered and
// unclustered overall rows for Retypd.
func Figure10(s *SuiteScores) string {
	scores := s.PerSystem["Retypd"]
	t := &Table{
		Title:   "Figure 10 — per-cluster metrics (Retypd)",
		Headers: []string{"cluster", "members", "distance", "interval", "conserv.", "ptr.acc.", "const"},
	}
	clusters := map[string][]BenchScore{}
	var order []string
	for _, sc := range scores {
		if sc.Cluster == "" {
			continue
		}
		if _, ok := clusters[sc.Cluster]; !ok {
			order = append(order, sc.Cluster)
		}
		clusters[sc.Cluster] = append(clusters[sc.Cluster], sc)
	}
	for _, c := range order {
		g := PlainAverage(clusters[c])
		t.AddRow(c, fmt.Sprint(len(clusters[c])), num2(g.Distance), num2(g.Interval),
			pct(g.Conserv), pct(g.PtrAcc), pct(g.ConstRecall))
	}
	all := ClusterAverage(scores)
	flat := PlainAverage(scores)
	t.AddRow("Retypd, as reported", "", num2(all.Distance), num2(all.Interval),
		pct(all.Conserv), pct(all.PtrAcc), pct(all.ConstRecall))
	t.AddRow("Retypd, without clustering", "", num2(flat.Distance), num2(flat.Interval),
		pct(flat.Conserv), pct(flat.PtrAcc), pct(flat.ConstRecall))
	return t.String()
}

// ScalingPoint is one measurement of the scaling sweep.
type ScalingPoint struct {
	Insts int
	// Workers is the solver parallelism the point was measured at
	// (resolved: 0-valued knobs are recorded as the actual CPU count).
	Workers int
	// Seconds is inference wall-clock time.
	Seconds float64
	// AllocBytes is total allocation during inference — the memory
	// proxy for Figure 12 (the paper measured peak RSS; allocation
	// volume is the closest hardware-independent analogue).
	AllocBytes float64
	// Kind tags special measurement modes: "" for the plain scaling
	// sweep, "cold"/"warm" for the persistence experiment (infer with
	// empty caches vs. infer after loading the saved cache stack in a
	// fresh engine), "incremental" for Engine.Reanalyze after a
	// 1-procedure mutation, "fleet-cold"/"fleet-warm" for the fleet
	// experiment (RunFleet).
	Kind string `json:",omitempty"`
	// CrossHits counts procedures served from the persistent
	// body-class table across program boundaries (fleet experiment
	// only).
	CrossHits uint64 `json:",omitempty"`
}

// RunScaling measures inference time and allocation across program
// sizes (Figures 11 and 12), at the parallelism cfg selects.
func RunScaling(cfg Config) []ScalingPoint {
	var out []ScalingPoint
	seed := int64(7)
	for _, size := range cfg.Fig11Sizes {
		seed++
		out = append(out, measureScale(size, seed, cfg.Parallelism))
	}
	return out
}

// RunParallelSweep measures one program size at several worker counts —
// the wall-clock speedup table behind the Appendix F parallelization
// claim.
func RunParallelSweep(size int, workerCounts []int) []ScalingPoint {
	var out []ScalingPoint
	for _, w := range workerCounts {
		// Fixed seed: every worker count measures the same program.
		out = append(out, measureScale(size, 8, w))
	}
	return out
}

// scaleTrials is the number of repetitions measureScale takes the
// median over. Wall-clock points feed the w4/w1 scaling gate
// (scripts/check_scaling.sh), which runs on noisy shared CI machines —
// a single sample regularly swings ±30% there, while the median of
// five is stable enough for a threshold comparison.
const scaleTrials = 5

// measureScale runs one (size, workers) inference scaleTrials times,
// recording the median wall clock and allocation volume.
func measureScale(size int, seed int64, workers int) ScalingPoint {
	lat := lattice.Default()
	b := corpus.Generate(fmt.Sprintf("scale%d", size), seed, size)
	prog, err := asm.Parse(b.Source)
	if err != nil {
		panic(err)
	}
	opts := solver.DefaultOptions()
	opts.Workers = workers

	secs := make([]float64, scaleTrials)
	allocs := make([]float64, scaleTrials)
	for i := range secs {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res := solver.Infer(prog, lat, nil, opts)
		secs[i] = time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		_ = res
		allocs[i] = float64(m1.TotalAlloc - m0.TotalAlloc)
	}
	return ScalingPoint{
		Insts:      b.Insts,
		Workers:    conc.Limit(workers),
		Seconds:    median(secs),
		AllocBytes: median(allocs),
	}
}

// median returns the middle value of xs (mean of the middle pair for
// even lengths). xs is reordered in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// RunWarmStart measures the engine persistence and incrementality path
// at one program size: a cold engine Infer, a warm Infer in a fresh
// engine that loaded the first engine's saved cache file, and an
// incremental Reanalyze after mutating one procedure. The three points
// (Kind "cold"/"warm"/"incremental") quantify what a service gains from
// a durable cache across restarts and from the session between edits.
func RunWarmStart(size int, seed int64, workers int) []ScalingPoint {
	lat := lattice.Default()
	b := corpus.Generate(fmt.Sprintf("warm%d", size), seed, size)
	prog, err := asm.Parse(b.Source)
	if err != nil {
		panic(err)
	}
	opts := solver.DefaultOptions()
	opts.Workers = workers

	measure := func(kind string, run func()) ScalingPoint {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		run()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return ScalingPoint{
			Insts:      b.Insts,
			Workers:    conc.Limit(workers),
			Seconds:    elapsed.Seconds(),
			AllocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
			Kind:       kind,
		}
	}

	var out []ScalingPoint
	eng := solver.NewEngine(0, 0)
	out = append(out, measure("cold", func() { eng.Infer(prog, lat, nil, opts) }))

	dir, err := os.MkdirTemp("", "retypd-warm")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := dir + "/cache"
	if err := eng.SaveCache(path); err != nil {
		panic(err)
	}
	warmEng, _, err := solver.LoadCache(path, 0, 0)
	if err != nil {
		panic(err)
	}
	out = append(out, measure("warm", func() { warmEng.Infer(prog, lat, nil, opts) }))

	// Incremental: mutate the first top-level procedure and reanalyze
	// against the cold engine's session.
	mutSrc := strings.Replace(b.Source, "proc "+prog.Procs[0].Name+"\n",
		"proc "+prog.Procs[0].Name+"\n    mov ecx, 12345\n", 1)
	mut, err := asm.Parse(mutSrc)
	if err != nil {
		panic(err)
	}
	out = append(out, measure("incremental", func() { eng.Reanalyze(mut, lat, nil, opts) }))
	return out
}

// RunFleet measures what the persistent body-class table is worth
// across a fleet of binaries built from one codebase: n binaries of
// `size` instructions each, a `shared` fraction of which is a common
// library under a binary-local rename (corpus.GenerateFleet). Binary 1
// is analyzed cold and its cache stack saved; each subsequent binary is
// analyzed by a fresh engine that loaded the accumulated cache file —
// one process per binary, the fleet-serving deployment shape. The
// returned points carry Kind "fleet-cold" (binary 1) and "fleet-warm"
// (binaries 2..n, with CrossHits = procedures served across program
// boundaries from the persisted table). Each point is the median of
// scaleTrials repetitions — the cold/warm ratio feeds the
// scripts/check_fleet.sh gate, which needs the same noise immunity as
// the scaling gate.
func RunFleet(n int, shared float64, size int, seed int64, workers int) []ScalingPoint {
	lat := lattice.Default()
	benches := corpus.GenerateFleet("fleet", seed, size, n, shared)
	opts := solver.DefaultOptions()
	opts.Workers = workers

	progs := make([]*asm.Program, len(benches))
	for i, b := range benches {
		p, err := asm.Parse(b.Source)
		if err != nil {
			panic(err)
		}
		progs[i] = p
	}

	// measure runs one binary scaleTrials times, each trial against a
	// freshly built engine (cold: empty; warm: loaded from the
	// accumulated cache file), and records the median inference time.
	// Engine construction and the cache load stay outside the timer: a
	// serving process pays them once, the per-binary analysis many
	// times. Body-class entries are decoded on first hit, so the timer
	// does cover decoding the entries this binary hits. The last
	// trial's engine is returned so its grown cache can be saved for
	// the next binary.
	measure := func(kind string, insts int, newEngine func() *solver.Engine, prog *asm.Program) (ScalingPoint, *solver.Engine, *solver.Result) {
		secs := make([]float64, scaleTrials)
		allocs := make([]float64, scaleTrials)
		var eng *solver.Engine
		var res *solver.Result
		for t := range secs {
			eng = newEngine()
			eng.DisableSessionRecording()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			res = eng.Infer(prog, lat, nil, opts)
			secs[t] = time.Since(start).Seconds()
			runtime.ReadMemStats(&m1)
			allocs[t] = float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		return ScalingPoint{
			Insts:      insts,
			Workers:    conc.Limit(workers),
			Seconds:    median(secs),
			AllocBytes: median(allocs),
			Kind:       kind,
		}, eng, res
	}

	dir, err := os.MkdirTemp("", "retypd-fleet")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := dir + "/cache"

	// The fleet never re-analyzes an edited binary; every engine is a
	// pure cache sharer.
	var out []ScalingPoint
	p, eng, _ := measure("fleet-cold", benches[0].Insts,
		func() *solver.Engine { return solver.NewEngine(0, 0) }, progs[0])
	out = append(out, p)
	if err := eng.SaveCache(path); err != nil {
		panic(err)
	}
	for i := 1; i < len(progs); i++ {
		p, weng, res := measure("fleet-warm", benches[i].Insts, func() *solver.Engine {
			e, _, err := solver.LoadCache(path, 0, 0)
			if err != nil {
				panic(err)
			}
			return e
		}, progs[i])
		p.CrossHits = res.BodyDedupCrossHits
		out = append(out, p)
		// Accumulate: binary i's classes serve binary i+1 too.
		if err := weng.SaveCache(path); err != nil {
			panic(err)
		}
	}
	return out
}

// FigureFleet renders the fleet-serving table from RunFleet's points.
func FigureFleet(points []ScalingPoint) string {
	t := &Table{
		Title:   "Fleet serving — cross-program body classes via the persisted cache",
		Headers: []string{"binary", "mode", "instructions", "wall seconds", "speedup", "cross-program hits"},
	}
	var cold float64
	for _, p := range points {
		if p.Kind == "fleet-cold" {
			cold = p.Seconds
		}
	}
	for i, p := range points {
		sp := "—"
		if p.Kind != "fleet-cold" && cold > 0 && p.Seconds > 0 {
			sp = fmt.Sprintf("%.1f×", cold/p.Seconds)
		}
		t.AddRow(fmt.Sprint(i+1), strings.TrimPrefix(p.Kind, "fleet-"),
			fmt.Sprint(p.Insts), fmt.Sprintf("%.4f", p.Seconds), sp, fmt.Sprint(p.CrossHits))
	}
	return t.String()
}

// FigureWarmStart renders the persistence/incrementality table from
// RunWarmStart's points.
func FigureWarmStart(points []ScalingPoint) string {
	t := &Table{
		Title:   "Engine warm start — cold vs persisted-cache vs incremental re-analysis",
		Headers: []string{"mode", "instructions", "workers", "wall seconds", "speedup", "MB allocated"},
	}
	var cold float64
	for _, p := range points {
		if p.Kind == "cold" {
			cold = p.Seconds
		}
	}
	for _, p := range points {
		sp := "—"
		if p.Kind != "cold" && cold > 0 && p.Seconds > 0 {
			sp = fmt.Sprintf("%.1f×", cold/p.Seconds)
		}
		t.AddRow(p.Kind, fmt.Sprint(p.Insts), fmt.Sprint(p.Workers),
			fmt.Sprintf("%.4f", p.Seconds), sp, fmt.Sprintf("%.1f", p.AllocBytes/1e6))
	}
	return t.String()
}

// Figure11 renders the time-scaling fit (paper: t = 0.000725·N^1.098,
// R² = 0.977).
func Figure11(points []ScalingPoint) string {
	var xs, ys []float64
	t := &Table{
		Title:   "Figure 11 — type-inference time vs program size",
		Headers: []string{"instructions", "workers", "wall seconds"},
	}
	for _, p := range points {
		xs = append(xs, float64(p.Insts))
		ys = append(ys, p.Seconds)
		t.AddRow(fmt.Sprint(p.Insts), fmt.Sprint(p.Workers), fmt.Sprintf("%.3f", p.Seconds))
	}
	fit := FitPower(xs, ys)
	ll := FitPowerLogLog(xs, ys)
	return t.String() +
		fmt.Sprintf("numerical fit   : t = %.3g · N^%.3f   (R² = %.3f)   [paper: N^1.098, R²=0.977]\n",
			fit.A, fit.B, fit.R2) +
		fmt.Sprintf("log-log fit     : t = %.3g · N^%.3f   (R² = %.3f)   [§6.6 note comparison]\n",
			ll.A, ll.B, ll.R2)
}

// FigureParallel renders the wall-clock speedup of the concurrent
// solver pipeline at each worker count, against the workers=1 row
// (Appendix F: per-SCC scheme inference is embarrassingly parallel
// across independent call-graph components).
func FigureParallel(points []ScalingPoint) string {
	t := &Table{
		Title:   "Parallel solver — wall-clock speedup vs worker count",
		Headers: []string{"instructions", "workers", "wall seconds", "speedup"},
	}
	var base float64
	if len(points) > 0 {
		base = points[0].Seconds
	}
	for _, p := range points {
		if p.Workers == 1 {
			base = p.Seconds
			break
		}
	}
	for _, p := range points {
		sp := "—"
		if base > 0 && p.Seconds > 0 {
			sp = fmt.Sprintf("%.2f×", base/p.Seconds)
		}
		t.AddRow(fmt.Sprint(p.Insts), fmt.Sprint(p.Workers),
			fmt.Sprintf("%.3f", p.Seconds), sp)
	}
	return t.String()
}

// Figure12 renders the memory-scaling fit (paper: m = 0.037·N^0.846,
// R² = 0.959).
func Figure12(points []ScalingPoint) string {
	var xs, ys []float64
	t := &Table{
		Title:   "Figure 12 — type-inference memory vs program size",
		Headers: []string{"instructions", "MB allocated"},
	}
	for _, p := range points {
		xs = append(xs, float64(p.Insts))
		ys = append(ys, p.AllocBytes/1e6)
		t.AddRow(fmt.Sprint(p.Insts), fmt.Sprintf("%.1f", p.AllocBytes/1e6))
	}
	fit := FitPower(xs, ys)
	return t.String() +
		fmt.Sprintf("numerical fit   : m = %.3g · N^%.3f   (R² = %.3f)   [paper: N^0.846, R²=0.959]\n",
			fit.A, fit.B, fit.R2)
}

// ConstReport renders the §6.4 const-recovery result (paper: 98%
// recall).
func ConstReport(s *SuiteScores) string {
	scores := s.PerSystem["Retypd"]
	var truth, found, extra int
	for _, sc := range scores {
		truth += sc.Agg.ConstTruth
		found += sc.Agg.ConstFound
		extra += sc.Agg.ConstExtra
	}
	var b strings.Builder
	fmt.Fprintf(&b, "§6.4 const recovery — source const parameters: %d, recovered: %d (recall %.0f%%) [paper: 98%%]\n",
		truth, found, 100*float64(found)/float64(max(1, truth)))
	fmt.Fprintf(&b, "additional const annotations on non-const source parameters: %d (paper: uncounted, §6.4)\n", extra)
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
