package retypd

import (
	"context"
	"os"
	"sync"

	"retypd/internal/ctype"
	"retypd/internal/lattice"
	"retypd/internal/solver"
)

// Engine is a long-lived analysis session — the way a service or a
// batch tool should run inference, and the way every run reaches the
// pipeline: the package-level Infer is a run on a throwaway Engine. An
// Engine owns the whole memo stack (the body-class table and the
// scheme-simplification and phase-2 shape memos, all shared by every
// call) and the session state incremental re-analysis diffs against:
//
//	eng := retypd.NewEngine(nil)
//	res := eng.Infer(prog, nil)          // cold: full pipeline
//	res2 := eng.Reanalyze(prog2)         // warm: only changed SCCs and
//	                                     // their callers recompute
//	eng.SaveCache("retypd.cache")        // persist the memo stack
//	eng.SaveSession("retypd.session")    // persist the replay baseline
//	...
//	eng2, _ := retypd.LoadCache("retypd.cache") // fresh process, warm caches
//	eng3, _ := retypd.LoadSession("retypd.session", nil)
//	res3 := eng3.Reanalyze(prog3)        // zero warm-up: replays directly
//
// Inference output is byte-identical however it is reached: through a
// cold Infer, a warm Engine, a Reanalyze, or a cache loaded from disk —
// the caches and the incremental replay change only how much work runs.
// Methods are safe for concurrent use; Reanalyze diffs against the most
// recently completed run's session.
type Engine struct {
	eng *solver.Engine

	mu      sync.Mutex
	lastCfg *Config
}

// EngineOptions configures a new engine; the zero value (and a nil
// pointer) select defaults.
type EngineOptions struct {
	// DisableSessions turns off session recording: the engine becomes a
	// pure cache sharer — Infer skips the per-run session snapshot (a
	// whole-program fingerprint pass plus retention of the previous
	// run's analyses) and Reanalyze degrades to a full Infer. For
	// batch workloads over many unrelated programs that never
	// re-analyze an edited one.
	DisableSessions bool
}

// NewEngine returns an engine with empty caches.
func NewEngine(opts *EngineOptions) *Engine {
	if opts == nil {
		opts = &EngineOptions{}
	}
	eng := solver.NewEngine()
	if opts.DisableSessions {
		eng.DisableSessionRecording()
	}
	return &Engine{eng: eng}
}

// Infer runs the full pipeline with the engine's shared caches and
// records the run as the engine's current session (the baseline the
// next Reanalyze diffs against). cfg works exactly as in the package-
// level Infer, with the engine's own caches (Config.NoSchemeCache and
// friends still disable layers for baseline measurements).
func (e *Engine) Infer(prog *Program, cfg *Config) *Result {
	res, err := e.InferContext(context.Background(), prog, cfg)
	if err != nil {
		// Background is never cancelled; the error is an *AnalysisError
		// or *LimitError, re-raised under the legacy contract.
		panic(err)
	}
	return res
}

// InferContext is Infer under a context — the entry point a service
// should call. Cancellation and deadlines are observed at task
// boundaries (an already-cancelled ctx returns before any worker
// spawns); a panic inside an analysis task comes back as a structured
// *AnalysisError and an oversized input as a *LimitError. On any error
// the engine publishes nothing — no session is recorded and the shared
// caches hold only completed computes — so the engine stays warm and
// usable, and its next run is byte-identical to one on a never-faulted
// engine.
func (e *Engine) InferContext(ctx context.Context, prog *Program, cfg *Config) (*Result, error) {
	cfg, lat, opts := resolveConfig(cfg)
	res, err := e.eng.InferContext(ctx, prog, lat, cfg.Summaries, opts)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.lastCfg = cfg
	e.mu.Unlock()
	return &Result{inner: res, conv: ctype.NewConverter(lat)}, nil
}

// Reanalyze infers prog incrementally against the engine's previous
// run, under that run's configuration: procedures whose bodies are
// unchanged — along with all their transitive callees and their SCC
// membership — are replayed from the session; only changed SCCs and
// their callers (condensed-call-graph ancestors) run the pipeline.
// Output is byte-identical to a from-scratch Infer of prog; the
// replayed/recomputed split is reported by Result.CacheStats. Without
// a previous run this is a plain (recorded) Infer with the default
// configuration.
func (e *Engine) Reanalyze(prog *Program) *Result {
	res, err := e.ReanalyzeContext(context.Background(), prog)
	if err != nil {
		panic(err)
	}
	return res
}

// ReanalyzeContext is Reanalyze under a context, with the same error
// and no-partial-state contract as InferContext: on cancellation, task
// panic, or admission rejection the engine's previous session stays
// current — the next Reanalyze diffs against it as if the failed run
// had never been attempted.
func (e *Engine) ReanalyzeContext(ctx context.Context, prog *Program) (*Result, error) {
	e.mu.Lock()
	cfg := e.lastCfg
	e.mu.Unlock()
	cfg, lat, opts := resolveConfig(cfg)
	res, err := e.eng.ReanalyzeContext(ctx, prog, lat, cfg.Summaries, opts)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.lastCfg = cfg
	e.mu.Unlock()
	return &Result{inner: res, conv: ctype.NewConverter(lat)}, nil
}

// SaveCache persists the engine's memo stack — the scheme and shape
// memos plus the persistent body-class table — to path as a versioned,
// checksummed, process-portable file; see LoadCache. The session state
// backing Reanalyze is saved separately by SaveSession.
func (e *Engine) SaveCache(path string) error { return e.eng.SaveCache(path) }

// SaveSession persists the engine's session — the per-procedure
// snapshots Reanalyze diffs against — to path as a versioned,
// checksummed file; see LoadSession. ErrNoSession reports an engine
// with nothing to save (no completed run, or session recording
// disabled).
func (e *Engine) SaveSession(path string) error { return e.eng.SaveSession(path) }

// ErrNoSession reports a SaveSession call on an engine that has not
// recorded a run.
var ErrNoSession = solver.ErrNoSession

// LoadSession reads a session file written by Engine.SaveSession into a
// fresh engine, under cfg (nil selects the defaults; it must name the
// same lattice and summaries the saved run used — a mismatch is not an
// error here, but the first Reanalyze will fall back to a full Infer).
// A process that loads the predecessor's session (and, optionally,
// merges its cache file with Engine.LoadCacheFile) goes straight to
// Reanalyze with zero warm-up: an unchanged program replays entirely,
// and an edited one recomputes only the edit's ancestor cone — in both
// cases byte-identical to a from-scratch run.
func LoadSession(path string, cfg *Config) (*Engine, error) {
	cfg, _, _ = resolveConfig(cfg) // builds the lattice sketch blobs name
	eng, _, err := solver.LoadSession(path)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, lastCfg: cfg}, nil
}

// LoadCacheFile merges a cache file written by Engine.SaveCache into
// this engine's live caches (the function-form LoadCache builds a fresh
// engine instead). Composes with LoadSession: load the session to get
// the replay baseline, then merge the cache so recomputed procedures
// still hit the memo stack. Like LoadCache, the engine keeps the file's
// bytes for first-hit decoding of body-class entries. An engine that has
// already inferred with body dedup on has filed body classes of its
// own: it refuses the file with an error and its caches stay as they
// were.
func (e *Engine) LoadCacheFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = e.eng.LoadCacheData(data)
	return err
}

// CacheLen reports the current entry counts of the two shared memo
// layers (observability for CLIs and tests).
func (e *Engine) CacheLen() (schemeEntries, shapeEntries int) {
	return e.eng.SchemeCache().Len(), e.eng.ShapeCache().Len()
}

// LoadCache reads a cache file written by Engine.SaveCache into a fresh
// engine. Entries are keyed by canonical, process-independent forms, so
// a cache saved by one process warms another: procedures isomorphic to
// anything analyzed before load are served from the cache instead of
// being re-simplified and re-shape-solved, with byte-identical output.
// Files written by a different encoding version are refused (the cache
// is then simply cold); shape entries whose lattice has not been built
// in this process are skipped. The body-class table's entries are
// decoded on first hit, not here: the engine keeps the file's bytes,
// serves a loaded entry once a procedure of its class is analyzed, and
// SaveCache writes entries it never hit back verbatim. An entry that
// turns out undecodable is a miss, never an error.
func LoadCache(path string) (*Engine, error) {
	eng, _, err := solver.LoadCache(path)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// resolveConfig maps a public Config (nil allowed) to the solver
// options, mirroring Infer.
func resolveConfig(cfg *Config) (*Config, *lattice.Lattice, solver.Options) {
	if cfg == nil {
		cfg = &Config{}
	}
	lat := cfg.Lattice
	if lat == nil {
		lat = lattice.Default()
	}
	opts := solverOptions(cfg)
	return cfg, lat, opts
}
