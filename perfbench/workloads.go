package main

import (
	"fmt"
	"math/rand"

	"retypd"
	"retypd/internal/corpus"
)

// A workload's op count is a fixed function of --seconds, never of how
// fast the engine is: fleet's cache and body-class table grow along its
// stream, so both sides of a comparison must run identical streams. At
// --seconds 10 the rates give every run at least 100 ops, so that at
// least ten lie beyond the 90th percentile, in whole blocks; the timed
// phase then takes about 10 s and the whole run 20 to 30 s on a 2-CPU
// Xeon VM.
var workloads = map[string]struct {
	make         func() workload
	opsPerSecond int
}{
	"cold":  {func() workload { return &cold{} }, 11},
	"fleet": {func() workload { return &fleet{} }, 12},
	"edit":  {func() workload { return &edit{} }, 28},
}

// cold: a seeded stream of distinct generated programs, each on a fresh
// engine with sessions off — one never-seen binary in, types out. The
// size mix is the paper's Fig. 11 range. Each block of five ops is a
// seeded shuffle of coldSizes followed by one more coldMid program, so
// the median op falls inside the 16k ops and the 90th percentile in the
// middle of the 32k ones, not on a boundary between two sizes where it
// would jump between seeds. Ending every block on the same size keeps
// the engine held at the end of the run, and so live_heap_mb, from
// depending on the seed's last shuffle.
var coldSizes = []int{4000, 8000, 16000, 32000}

const coldMid = 16000

type cold struct {
	progs []*corpus.Benchmark
	eng   *retypd.Engine
}

func (w *cold) block() int { return len(coldSizes) + 1 }

func (w *cold) params(int) map[string]any {
	return map[string]any{"sizes": append(coldSizes, coldMid), "engine": "fresh per program, sessions off"}
}

func (w *cold) setup(b *bench) error {
	r := rand.New(rand.NewSource(b.cfg.seed))
	w.progs = make([]*corpus.Benchmark, b.ops)
	for c := 0; c < b.ops; c += w.block() {
		sizes := append(shuffled(r, coldSizes), coldMid)
		for j := 0; j < len(sizes) && c+j < b.ops; j++ {
			i := c + j
			w.progs[i] = corpus.Generate(fmt.Sprintf("cold%d", i), b.cfg.seed*1_000_003+int64(i), sizes[j])
		}
	}
	// Warm-up: one program of each size, outside the timed stream.
	for j, size := range coldSizes {
		warm := corpus.Generate("warm", -b.cfg.seed*1_000_003-int64(j)-1, size)
		eng := retypd.NewEngine(&retypd.EngineOptions{DisableSessions: true})
		if _, err := b.runOp(nil, warm.Source, func(p *retypd.Program) (*retypd.Result, error) {
			return eng.InferContext(b.ctx, p, b.engCfg)
		}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	w.eng = nil
	return nil
}

// shuffled is a seeded permutation of xs, in a new slice.
func shuffled(r *rand.Rand, xs []int) []int {
	out := make([]int, len(xs))
	for i, j := range r.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

func (w *cold) prepare(b *bench, i int, sp *opSpans) error {
	w.eng = retypd.NewEngine(&retypd.EngineOptions{DisableSessions: true})
	return nil
}

func (w *cold) step(b *bench, i int, sp *opSpans) (*opResult, error) {
	bench := w.progs[i]
	w.progs[i] = nil // the input is consumed; keep it out of the live heap
	out, err := b.runOp(sp, bench.Source, func(p *retypd.Program) (*retypd.Result, error) {
		return w.eng.InferContext(b.ctx, p, b.engCfg)
	})
	if err != nil {
		return nil, err
	}
	out.truth = func() *corpus.Benchmark { return bench }
	return out, nil
}

func (w *cold) engine() *retypd.Engine { return w.eng }

// fleet: one long-lived engine serves a stream of 8k-instruction
// binaries, half of each a library shared under a per-binary rename.
// Every fleetRestart binaries the process restarts: SaveCache, then a
// fresh LoadCache engine carries on. The load is charged to the next
// op, because the first request after a restart waits for it. The size,
// shared fraction and restart period are those of the fleet measurements
// this workload reproduces (24 × 8k binaries, a restart every 6). At that
// period restarts are about 16% of the ops, so they set op_p90_ms, as
// they set the tail of a serving engine.
const (
	fleetSize    = 8000
	fleetShared  = 0.5
	fleetRestart = 6
)

type fleet struct {
	bins     []*corpus.Benchmark
	eng      *retypd.Engine
	pending  bool
	restarts int
}

func (w *fleet) block() int { return fleetRestart }

func (w *fleet) params(ops int) map[string]any {
	return map[string]any{"size": fleetSize, "shared": fleetShared, "restart_every": fleetRestart,
		"restart_ops": w.restarts, "restart_share": float64(w.restarts) / float64(max(1, ops))}
}

func (w *fleet) setup(b *bench) error {
	w.bins = corpus.GenerateFleet("fleet", b.cfg.seed, fleetSize, b.ops, fleetShared)
	// Warm-up on a throwaway engine and a fleet of its own, so the
	// measured engine starts empty.
	warm := retypd.NewEngine(nil)
	for _, wb := range corpus.GenerateFleet("warm", -b.cfg.seed-1, fleetSize, 3, fleetShared) {
		if _, err := b.runOp(nil, wb.Source, func(p *retypd.Program) (*retypd.Result, error) {
			return warm.InferContext(b.ctx, p, b.engCfg)
		}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := warm.SaveCache(b.path("warm.cache")); err != nil {
		return err
	}
	if _, err := retypd.LoadCache(b.path("warm.cache")); err != nil {
		return err
	}
	w.eng = retypd.NewEngine(nil)
	w.pending, w.restarts = false, 0
	return nil
}

func (w *fleet) prepare(b *bench, i int, sp *opSpans) error {
	if i == 0 || i%fleetRestart != 0 {
		return nil
	}
	end := sp.begin("solver.save_cache", "restart")
	err := w.eng.SaveCache(b.path("fleet.cache"))
	end()
	if err != nil {
		return fmt.Errorf("save cache: %w", err)
	}
	sp.size("solver.cache_mb", b.path("fleet.cache"))
	if sp != nil {
		// Fleet restarts persist only the cache; the session a restart
		// would also carry is measured on the same engine.
		if err := sp.tr.sessionProbe(b, w.eng); err != nil {
			return fmt.Errorf("session probe: %w", err)
		}
	}
	w.eng = nil
	w.pending = true
	w.restarts++
	return nil
}

func (w *fleet) step(b *bench, i int, sp *opSpans) (*opResult, error) {
	if w.pending {
		end := sp.begin("solver.load_cache", "op")
		eng, err := retypd.LoadCache(b.path("fleet.cache"))
		end()
		if err != nil {
			return nil, fmt.Errorf("load cache: %w", err)
		}
		w.eng, w.pending = eng, false
	}
	bin := w.bins[i]
	w.bins[i] = nil
	out, err := b.runOp(sp, bin.Source, func(p *retypd.Program) (*retypd.Result, error) {
		return w.eng.InferContext(b.ctx, p, b.engCfg)
	})
	if err != nil {
		return nil, err
	}
	out.truth = func() *corpus.Benchmark { return bin }
	return out, nil
}

func (w *fleet) engine() *retypd.Engine { return w.eng }
