package faultinject

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/conc"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/leakcheck"
	"retypd/internal/solver"
)

// TestPreCancelledReturnsPromptly: an already-cancelled context is
// rejected before any scheduler work — no worker goroutines spawn (the
// leak check), no task runs, and no result comes back.
func TestPreCancelledReturnsPromptly(t *testing.T) {
	leakcheck.Install(t)
	lat := lattice.Default()
	prog := sweepProg(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// A BeforeTask hook that records any invocation: pre-cancelled runs
	// must never reach a task boundary.
	ran := false
	opts := solver.DefaultOptions()
	opts.Workers = 8
	opts.SchedHooks = &conc.SchedHooks{BeforeTask: func(string, string) { ran = true }}

	eng := solver.NewEngine()
	res, err := eng.InferContext(ctx, prog, lat, nil, opts)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-cancelled run returned a result")
	}
	if ran {
		t.Fatal("pre-cancelled run executed a task")
	}
}

// TestMidRunCancelLatency: a cancel partway through a 4000-inst
// analysis stops the pool from handing out tasks. The fault plan
// cancels at the first F.2 task, when most of the pipeline's work is
// still outstanding. A task that had started runs to completion, so
// only the tasks other workers had already taken may reach their
// BeforeTask after the cancel: fewer than Workers of them. The run as
// a whole must start fewer tasks than a full analysis does.
func TestMidRunCancelLatency(t *testing.T) {
	leakcheck.Install(t)
	lat := lattice.Default()
	prog, err := asm.Parse(corpus.Generate("cancellat", 13, 4000).Source)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4

	var full atomic.Int64
	opts := solver.DefaultOptions()
	opts.Workers = workers
	opts.SchedHooks = &conc.SchedHooks{BeforeTask: func(string, string) { full.Add(1) }}
	if _, err := solver.NewEngine().InferContext(context.Background(), prog, lat, nil, opts); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := &Plan{Phase: "F.2", N: 0, Kind: Cancel, Cancel: cancel}
	fire := plan.Hooks().BeforeTask
	var total, late atomic.Int64
	opts.SchedHooks = &conc.SchedHooks{BeforeTask: func(phase, name string) {
		total.Add(1)
		if ctx.Err() != nil {
			late.Add(1)
		}
		fire(phase, name)
	}}

	eng := solver.NewEngine()
	res, err := eng.InferContext(ctx, prog, lat, nil, opts)

	if !plan.Fired() {
		t.Fatal("cancel plan never fired")
	}
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("err = %v, result = %v; want context.Canceled and no result", err, res != nil)
	}
	t.Logf("tasks: full run %d, cancelled run %d, after the cancel %d", full.Load(), total.Load(), late.Load())
	if n := late.Load(); n >= workers {
		t.Errorf("%d tasks reached BeforeTask after the cancel, want fewer than %d (one per other worker at most)", n, workers)
	}
	if total.Load() >= full.Load() {
		t.Errorf("cancelled run started %d tasks, a full run %d: the cancel did not stop the pool", total.Load(), full.Load())
	}

	// The engine stays usable after the abandoned run.
	if _, err := eng.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions()); err != nil {
		t.Fatalf("engine unusable after cancelled run: %v", err)
	}
}

// TestAdmissionGuards: oversize programs are rejected with a typed
// *solver.LimitError before any analysis work begins.
func TestAdmissionGuards(t *testing.T) {
	leakcheck.Install(t)
	lat := lattice.Default()
	prog := sweepProg(t)
	eng := solver.NewEngine()

	opts := solver.DefaultOptions()
	opts.MaxInstructions = 10
	_, err := eng.InferContext(context.Background(), prog, lat, nil, opts)
	var le *solver.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want *solver.LimitError", err, err)
	}
	if le.What != "instructions" || le.Limit != 10 {
		t.Errorf("LimitError = %+v, want instructions/10", le)
	}

	opts = solver.DefaultOptions()
	opts.MaxProcedures = 1
	_, err = eng.InferContext(context.Background(), prog, lat, nil, opts)
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want *solver.LimitError", err, err)
	}
	if le.What != "procedures" || le.Limit != 1 {
		t.Errorf("LimitError = %+v, want procedures/1", le)
	}

	// Rejection publishes nothing and the engine still works.
	res, err := eng.InferContext(context.Background(), prog, lat, nil, solver.DefaultOptions())
	if err != nil {
		t.Fatalf("engine unusable after admission rejection: %v", err)
	}
	if res == nil {
		t.Fatal("nil result from clean run")
	}
}
