package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"retypd"
	"retypd/internal/corpus"
	"retypd/internal/intern"
	"retypd/internal/metrics"
)

// setupProcs is how many set-ups setup_s is the median of. Each is the
// first set-up of a fresh process, because the first ops of a process
// fill the process-wide intern table and that cost belongs to set-up: the
// run's own set-up is one, and the others run in child processes started
// with --setup-only.
const setupProcs = 3

// checkEvery is the mean spacing of the ops whose rendering is compared
// with a fresh-engine, Workers: 1, memo-off reference run.
const checkEvery = 10

// traceEvery is the spacing of traced blocks in a traced run; the
// blocks between them are the untraced side of the tracing overhead.
const traceEvery = 4

// workload owns one workload's inputs, its engine and the shape of its
// ops. Methods are called from one goroutine.
type workload interface {
	// setup builds the inputs and the engine and runs the warm-up ops.
	setup(b *bench) error
	// prepare does op i's untimed work before its clock starts: building
	// a fresh engine, saving state before a restart, applying an edit.
	prepare(b *bench, i int, sp *opSpans) error
	// step runs op i: any restart load the op waits for, then
	// parse → infer → render.
	step(b *bench, i int, sp *opSpans) (*opResult, error)
	// engine is the engine the timed phase ended with (held while the
	// live heap is measured).
	engine() *retypd.Engine
	// block is the number of consecutive ops that form one unit of the
	// workload's input mix (a size cycle or a restart period). Traced
	// runs trace every traceEvery-th block, so traced and untraced ops
	// see the same mix.
	block() int
	// params describes the generator of a run of ops ops for the
	// environment stamp, with the measured shares of its op mix.
	params(ops int) map[string]any
}

// opResult is one op's output.
type opResult struct {
	src   string
	prog  *retypd.Program
	res   *retypd.Result
	sigs  []string
	insts int
	// truth, when set, gives the ground truth the op is scored against
	// for the precision metrics; with sampleScore only sampled ops are.
	truth       func() *corpus.Benchmark
	sampleScore bool
}

// bench is one run.
type bench struct {
	cfg    config
	log    io.Writer
	ctx    context.Context
	nproc  int
	engCfg *retypd.Config
	wl     workload
	ops    int
	tmp    string
	check  *rand.Rand
	tr     *tracer

	setups     []time.Duration
	lat        []time.Duration
	latTraced  []time.Duration
	latPlain   []time.Duration
	insts      int
	attempted  int
	failed     int
	checked    int
	pending    []pendingCheck
	prec       metrics.Aggregate
	wall       time.Duration
	alloc      uint64
	liveHeap   uint64
	peakRSS    float64
	gcs        uint32
	gcPause    time.Duration
	syms, dtvs int
}

func newBench(cfg config, log io.Writer) (*bench, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	b := &bench{
		cfg:    cfg,
		log:    log,
		ctx:    context.Background(),
		nproc:  nproc,
		engCfg: &retypd.Config{Workers: nproc},
		tmp:    tmp,
		check:  rand.New(rand.NewSource(cfg.seed ^ 0x5eed)),
	}
	d := workloads[cfg.workload]
	b.wl = d.make()
	b.ops = cfg.seconds * d.opsPerSecond
	if cfg.trace {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) close() { os.RemoveAll(b.tmp) }

// path names a temporary file of this run.
func (b *bench) path(name string) string { return filepath.Join(b.tmp, name) }

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

// setupOnce times one set-up of the workload.
func (b *bench) setupOnce() (time.Duration, error) {
	t := time.Now()
	if err := b.wl.setup(b); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(t), nil
}

// childSetup times one set-up in a fresh child process, which runs this
// binary with --setup-only and prints the set-up's nanoseconds.
func (b *bench) childSetup() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(b.ctx, exe, "--setup-only",
		"--workload", b.cfg.workload, "--seed", strconv.FormatInt(b.cfg.seed, 10),
		"--seconds", strconv.Itoa(b.cfg.seconds), "--work", b.cfg.work, "--root", b.cfg.root)
	cmd.Stderr = b.log
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process printed %q", out)
	}
	return time.Duration(ns), nil
}

// run performs the set-up, the timed phase and the checks.
func (b *bench) run() error {
	// The child set-ups run first, so that this process holds none of
	// their memory, and this process's own set-up is its first as well.
	for r := 1; r < setupProcs; r++ {
		d, err := b.childSetup()
		if err != nil {
			return err
		}
		b.setups = append(b.setups, d)
	}
	d, err := b.setupOnce()
	if err != nil {
		return err
	}
	b.setups = append(b.setups, d)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	syms0, _, dtvs0 := intern.GlobalStats()
	var paused time.Duration
	var pausedAlloc, pausedPause uint64
	var pausedGCs uint32
	start := time.Now()
	for i := 0; i < b.ops; i++ {
		var sp *opSpans
		traced := b.tr != nil && (i/b.wl.block())%traceEvery == 0
		if traced {
			sp = b.tr.op(i)
		}
		if err := b.wl.prepare(b, i, sp); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		t := time.Now()
		endOp := sp.begin("op", "")
		out, err := b.wl.step(b, i, sp)
		endOp()
		d := time.Since(t)

		// Everything below is the client's bookkeeping, not the engine's
		// work: its time, allocations and collections are taken out of the
		// timed phase. It ends with a collection, so that its garbage does
		// not slow the next op; on this closed loop every op then starts
		// from the heap the engine retains.
		p := time.Now()
		var ma, mb runtime.MemStats
		runtime.ReadMemStats(&ma)
		b.attempted++
		b.lat = append(b.lat, d)
		if b.tr != nil {
			if traced {
				b.latTraced = append(b.latTraced, d)
			} else {
				b.latPlain = append(b.latPlain, d)
			}
		}
		if err != nil {
			b.failed++
			b.logf("op %d failed: %v", i, err)
		} else {
			b.insts += out.insts
			if !b.checkOp(i, out) {
				b.failed++
			}
			if traced {
				if err := b.tr.afterOp(b, i, out); err != nil {
					return fmt.Errorf("op %d: trace: %w", i, err)
				}
			}
		}
		out = nil
		runtime.GC()
		runtime.ReadMemStats(&mb)
		paused += time.Since(p)
		pausedAlloc += mb.TotalAlloc - ma.TotalAlloc
		pausedGCs += mb.NumGC - ma.NumGC
		pausedPause += mb.PauseTotalNs - ma.PauseTotalNs
		if time.Since(start) > time.Duration(10*b.cfg.seconds)*time.Second {
			b.logf("stopping after %d of %d ops: the run is far over its nominal length", i+1, b.ops)
			break
		}
	}
	b.wall = time.Since(start) - paused
	runtime.ReadMemStats(&m1)
	b.alloc = m1.TotalAlloc - m0.TotalAlloc - pausedAlloc
	b.gcs = m1.NumGC - m0.NumGC - pausedGCs
	b.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs - pausedPause)
	syms1, _, dtvs1 := intern.GlobalStats()
	b.syms, b.dtvs = syms1-syms0, dtvs1-dtvs0

	// Two collections: the first moves sync.Pool contents to their
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	b.liveHeap = mh.HeapAlloc
	runtime.KeepAlive(b.wl.engine())
	b.peakRSS = peakRSS()

	// The reference runs come after the memory readings, so that their
	// peak is not the engine's.
	for _, c := range b.pending {
		if !b.verify(c) {
			b.failed++
		}
	}

	if b.tr != nil {
		if err := b.tr.finish(b); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// pendingCheck is a sampled op whose rendering is compared with the
// reference run after the timed phase. Its source and rendering wait on
// disk, so they stay out of the live heap.
type pendingCheck struct {
	op            int
	src, rendered string
}

// checkOp runs the in-line correctness checks on one op, scores its
// precision, and files a sampled op for verify. It reports whether the
// op passed so far.
func (b *bench) checkOp(i int, out *opResult) bool {
	if b.cfg.corrupt && len(out.sigs) > 0 {
		out.sigs[len(out.sigs)/2] += " /* corrupted */"
	}
	names := out.res.ProcNames()
	if len(names) != len(out.prog.Procs) || len(out.sigs) != len(names) {
		b.logf("op %d: %d procedures, %d results, %d signatures", i, len(out.prog.Procs), len(names), len(out.sigs))
		return false
	}
	sampled := i == 0 || b.check.Intn(checkEvery) == 0
	if out.truth != nil && (sampled || !out.sampleScore) {
		b.prec.Merge(score(out.res, out.truth()))
	}
	if !sampled {
		return true
	}
	c := pendingCheck{op: i, src: b.path(fmt.Sprintf("check%d.sasm", i)), rendered: b.path(fmt.Sprintf("check%d.report", i))}
	if err := os.WriteFile(c.src, []byte(out.src), 0o644); err != nil {
		b.logf("op %d: %v", i, err)
		return false
	}
	if err := os.WriteFile(c.rendered, []byte(report(out.res, out.sigs)), 0o644); err != nil {
		b.logf("op %d: %v", i, err)
		return false
	}
	b.pending = append(b.pending, c)
	return true
}

// verify checks the central invariant on a sampled op: its rendering is
// byte-identical to the reference run's.
func (b *bench) verify(c pendingCheck) bool {
	b.checked++
	src, err := os.ReadFile(c.src)
	if err != nil {
		b.logf("op %d: %v", c.op, err)
		return false
	}
	got, err := os.ReadFile(c.rendered)
	if err != nil {
		b.logf("op %d: %v", c.op, err)
		return false
	}
	want, err := reference(b.ctx, string(src))
	if err != nil {
		b.logf("op %d: reference run: %v", c.op, err)
		return false
	}
	if string(got) != want {
		b.logf("op %d: rendering differs from the reference run: %s", c.op, firstDiff(string(got), want))
		return false
	}
	return true
}

// runOp is the timed core every workload shares:
// parse → infer (through run) → render.
func (b *bench) runOp(sp *opSpans, src string, infer func(*retypd.Program) (*retypd.Result, error)) (*opResult, error) {
	end := sp.begin("asm.parse", "op")
	prog, err := retypd.ParseAsm(src)
	end()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	end = sp.begin("solver.infer", "op")
	res, err := infer(prog)
	end()
	if err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	end = sp.begin("ctype.render", "op")
	sigs := render(res)
	end()
	return &opResult{src: src, prog: prog, res: res, sigs: sigs, insts: prog.NumInsts()}, nil
}

// render is the op's output: every procedure's C signature, in
// ProcNames order.
func render(res *retypd.Result) []string {
	names := res.ProcNames()
	sigs := make([]string, len(names))
	for i, n := range names {
		sigs[i] = res.Signature(n).String()
	}
	return sigs
}

// report rebuilds Result.Report from an op's already-rendered
// signatures. Report cannot be called on the op's own result: rendering
// numbers struct typedefs as it meets them, so a second rendering of the
// same Result names them differently.
func report(res *retypd.Result, sigs []string) string {
	var sb strings.Builder
	for i, name := range res.ProcNames() {
		fmt.Fprintf(&sb, "%s\n", sigs[i])
		fmt.Fprintf(&sb, "  scheme: %s\n", res.Scheme(name))
	}
	if ts := res.Typedefs(); len(ts) > 0 {
		sb.WriteString("\ntypedefs:\n")
		for _, t := range ts {
			fmt.Fprintf(&sb, "  %s;\n", t)
		}
	}
	return sb.String()
}

// reference is the central invariant's other side: the same program on
// a fresh engine, one worker, every memo layer off.
func reference(ctx context.Context, src string) (string, error) {
	prog, err := retypd.ParseAsm(src)
	if err != nil {
		return "", err
	}
	eng := retypd.NewEngine(&retypd.EngineOptions{DisableSessions: true})
	res, err := eng.InferContext(ctx, prog, &retypd.Config{
		Workers: 1, NoBodyDedup: true, NoSchemeCache: true, NoShapeCache: true,
	})
	if err != nil {
		return "", err
	}
	return res.Report(), nil
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// quantile is the nearest-rank q-quantile of ds: the smallest sample
// with at least a q share of the samples at or below it. beyond counts
// the samples above it.
func quantile(ds []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*q+0.999999) - 1
	k = max(0, min(k, len(s)-1))
	return s[k], len(s) - 1 - k
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mb = 1 << 20
