package faultinject

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/leakcheck"
	"retypd/internal/solver"
)

// sweepProg is the program every fault run analyzes: large enough that
// each phase has many tasks (so the Nth-task trigger lands mid-phase)
// and generated, so it contains the duplicate leaf procedures that give
// F.0 real classification work.
func sweepProg(t testing.TB) *asm.Program {
	t.Helper()
	prog, err := asm.Parse(corpus.Generate("faultsweep", 7, 900).Source)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// dumps renders the run's full observable output.
func dumps(res *solver.Result) string {
	return res.DumpSchemes() + "\x00" + res.DumpSpecialized()
}

// reference computes the never-faulted engine's output for prog.
func reference(t testing.TB, prog *asm.Program, lat *lattice.Lattice) string {
	t.Helper()
	eng := solver.NewEngine()
	res, err := eng.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions())
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	return dumps(res)
}

// TestFaultSweep drives the tentpole contract: for every pipeline phase
// × fault kind × worker count, a fault mid-run leaves the engine alive,
// publishes nothing, and the same engine's next clean run is
// byte-identical to a never-faulted engine's; its persisted cache still
// loads; and the goroutine count settles back to baseline.
func TestFaultSweep(t *testing.T) {
	lat := lattice.Default()
	prog := sweepProg(t)
	want := reference(t, prog, lat)

	phases := []string{"F.0", "F.1", "F.2", "F.3"}
	kinds := []struct {
		name string
		kind Kind
	}{{"panic", Panic}, {"cancel", Cancel}, {"stall", Stall}}

	for _, phase := range phases {
		for _, k := range kinds {
			for _, workers := range []int{1, 2, 4, 8} {
				name := phase + "/" + k.name + "/w" + string(rune('0'+workers))
				t.Run(name, func(t *testing.T) {
					leakcheck.Install(t)
					eng := solver.NewEngine()

					plan := &Plan{Phase: phase, N: 1, Kind: k.kind, Delay: 150 * time.Millisecond}
					ctx := context.Background()
					var cancel context.CancelFunc
					switch k.kind {
					case Cancel:
						ctx, cancel = context.WithCancel(ctx)
						plan.Cancel = cancel
					case Stall:
						// The stalled task sleeps far past the deadline, so
						// the deadline reliably expires mid-phase.
						ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
					}
					if cancel != nil {
						defer cancel()
					}

					opts := solver.DefaultOptions()
					opts.Workers = workers
					opts.SchedHooks = plan.Hooks()
					res, err := eng.InferContext(ctx, prog, lat, nil, opts)

					if !plan.Fired() {
						// The trigger coordinates never materialized. For
						// Stall the context deadline is armed regardless, so
						// a slow run (e.g. under -race) may still deadline
						// out before reaching the trigger; anything else must
						// have been a clean success.
						if k.kind == Stall && errors.Is(err, context.DeadlineExceeded) {
							// acceptable: recovery assertions below still apply
						} else if err != nil {
							t.Fatalf("fault never fired but run errored: %v", err)
						} else if dumps(res) != want {
							t.Fatal("clean run (unfired fault) output differs from reference")
						}
					} else {
						switch k.kind {
						case Panic:
							var ae *solver.AnalysisError
							if !errors.As(err, &ae) {
								t.Fatalf("err = %v (%T), want *solver.AnalysisError", err, err)
							}
							if ae.Phase != phase {
								t.Errorf("AnalysisError.Phase = %q, want %q", ae.Phase, phase)
							}
							if !errors.Is(err, ErrInjected) {
								t.Errorf("AnalysisError does not unwrap to ErrInjected: %v", err)
							}
						case Cancel:
							// Cooperative cancellation: the run either aborts
							// with Canceled or — if it was already past the
							// last boundary — completes with correct output.
							if err != nil && !errors.Is(err, context.Canceled) {
								t.Fatalf("err = %v, want context.Canceled or clean finish", err)
							}
							if err == nil && dumps(res) != want {
								t.Fatal("run that outran the cancel produced wrong output")
							}
						case Stall:
							if err != nil && !errors.Is(err, context.DeadlineExceeded) {
								t.Fatalf("err = %v, want context.DeadlineExceeded or clean finish", err)
							}
							if err == nil && dumps(res) != want {
								t.Fatal("run that outran the deadline produced wrong output")
							}
						}
						if err != nil && res != nil {
							t.Fatal("errored run returned a non-nil result")
						}
					}

					// Crash-safety contract: the same engine's next clean run
					// is byte-identical to a never-faulted engine's.
					clean, cerr := eng.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions())
					if cerr != nil {
						t.Fatalf("engine unusable after fault: %v", cerr)
					}
					if dumps(clean) != want {
						t.Fatal("post-fault recovery output differs from never-faulted reference")
					}

					// The cache stack persisted after the fault still loads.
					var buf bytes.Buffer
					if err := eng.SaveCacheTo(&buf); err != nil {
						t.Fatalf("SaveCacheTo after fault: %v", err)
					}
					eng2 := solver.NewEngine()
					if _, err := eng2.LoadCacheData(buf.Bytes()); err != nil {
						t.Fatalf("cache written after fault does not load: %v", err)
					}
				})
			}
		}
	}
}

// TestReanalyzeAfterFault: a fault during Reanalyze leaves the previous
// session current, and the next Reanalyze on the same engine matches a
// from-scratch run byte for byte.
func TestReanalyzeAfterFault(t *testing.T) {
	leakcheck.Install(t)
	lat := lattice.Default()
	prog := sweepProg(t)
	want := reference(t, prog, lat)

	eng := solver.NewEngine()
	if _, err := eng.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	plan := &Plan{Phase: "F.2", N: 0, Kind: Panic}
	opts := solver.DefaultOptions()
	opts.SchedHooks = plan.Hooks()
	if _, err := eng.ReanalyzeContext(context.Background(), prog, lat, nil, opts); err == nil {
		t.Fatal("injected panic did not surface from ReanalyzeContext")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}

	res, err := eng.ReanalyzeContext(context.Background(), prog, lat, nil, solver.DefaultOptions())
	if err != nil {
		t.Fatalf("engine unusable after faulted Reanalyze: %v", err)
	}
	if dumps(res) != want {
		t.Fatal("post-fault Reanalyze differs from reference")
	}
	if res.ReplayedProcs == 0 {
		t.Error("post-fault Reanalyze replayed nothing: faulted run clobbered the session")
	}
}

// TestCacheDecodeFault: a corrupted cache file fails to load with a
// clean error and the engine that refused it stays fully usable.
func TestCacheDecodeFault(t *testing.T) {
	leakcheck.Install(t)
	lat := lattice.Default()
	prog := sweepProg(t)
	want := reference(t, prog, lat)

	eng := solver.NewEngine()
	if _, err := eng.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCacheTo(&buf); err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 8; seed++ {
		bad := CorruptCopy(buf.Bytes(), seed)
		if bytes.Equal(bad, buf.Bytes()) {
			t.Fatalf("seed %d: CorruptCopy changed nothing", seed)
		}
		fresh := solver.NewEngine()
		if _, err := fresh.LoadCacheData(bad); err == nil {
			t.Fatalf("seed %d: corrupted cache loaded without error", seed)
		}
		res, err := fresh.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: engine unusable after refused cache: %v", seed, err)
		}
		if dumps(res) != want {
			t.Fatalf("seed %d: output differs after refused cache load", seed)
		}
	}
}

// TestCorruptCopyDeterministic: the same seed flips the same byte.
func TestCorruptCopyDeterministic(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	a := CorruptCopy(data, 42)
	b := CorruptCopy(data, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruptions")
	}
	if bytes.Equal(a, CorruptCopy(data, 43)) {
		t.Fatal("different seeds produced identical corruptions (suspicious)")
	}
}
