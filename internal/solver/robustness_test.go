package solver

import (
	"context"
	"errors"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/conc"
	"retypd/internal/corpus"
	"retypd/internal/faultinject"
	"retypd/internal/lattice"
	"retypd/internal/leakcheck"
	"retypd/internal/schedtest"
)

// robustnessProg returns a corpus program big enough that F.1/F.2 run
// many tasks across several readiness levels — room for steals, and for
// a fault to land while dependents are still queued.
func robustnessProg(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := asm.Parse(corpus.Generate("robust", 21, 1200).Source)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCancelMidStealDrains: cancel fired from inside an F.2 task while
// a seeded perturber is scrambling steal orders across 8 workers. The
// pool must drain completely (no leaked workers, no deadlock) and the
// run must end in context.Canceled or a clean finish — never a hang,
// never a partial result.
func TestCancelMidStealDrains(t *testing.T) {
	leakcheck.Install(t)
	prog := robustnessProg(t)
	lat := lattice.Default()

	for seed := int64(0); seed < 6; seed++ {
		ctx, cancel := context.WithCancel(context.Background())
		plan := &faultinject.Plan{Phase: "F.2", N: int(seed), Kind: faultinject.Cancel, Cancel: cancel}

		// Compose the fault trigger with adversarial scheduling: the
		// perturber owns BeforeRun/StealOrder, the plan owns BeforeTask.
		perturbed := schedtest.New(seed).Hooks()
		hooks := &conc.SchedHooks{
			BeforeRun:  perturbed.BeforeRun,
			StealOrder: perturbed.StealOrder,
			BeforeTask: plan.Hooks().BeforeTask,
		}

		opts := DefaultOptions()
		opts.Workers = 8
		opts.SchedHooks = hooks
		res, err := oneShot(ctx, prog, lat, opts)
		cancel()

		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: err = %v, want context.Canceled or nil", seed, err)
		}
		if err != nil && res != nil {
			t.Fatalf("seed %d: cancelled run returned a result", seed)
		}
		if err == nil && res == nil {
			t.Fatalf("seed %d: clean run returned no result", seed)
		}
	}
}

// TestPanicMidF2Contained: a panic inside an F.2 task under a stealing
// 8-worker schedule surfaces as a structured *AnalysisError naming the
// phase and procedure, the pool drains, and an immediate retry on the
// same inputs succeeds with output matching an unfaulted run.
func TestPanicMidF2Contained(t *testing.T) {
	leakcheck.Install(t)
	prog := robustnessProg(t)
	lat := lattice.Default()

	ref, err := oneShot(context.Background(), prog, lat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DumpSchemes() + ref.DumpSpecialized()

	for _, workers := range []int{2, 8} {
		plan := &faultinject.Plan{Phase: "F.2", N: 2, Kind: faultinject.Panic}
		opts := DefaultOptions()
		opts.Workers = workers
		opts.SchedHooks = plan.Hooks()

		_, err := oneShot(context.Background(), prog, lat, opts)
		if !plan.Fired() {
			t.Fatalf("w=%d: plan never fired (fewer than 3 F.2 tasks?)", workers)
		}
		var ae *AnalysisError
		if !errors.As(err, &ae) {
			t.Fatalf("w=%d: err = %v (%T), want *AnalysisError", workers, err, err)
		}
		if ae.Phase != "F.2" {
			t.Errorf("w=%d: Phase = %q, want F.2", workers, ae.Phase)
		}
		if ae.Proc == "" {
			t.Errorf("w=%d: AnalysisError.Proc is empty; task identity lost", workers)
		}
		if len(ae.Stack) == 0 {
			t.Errorf("w=%d: AnalysisError.Stack is empty", workers)
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("w=%d: error does not unwrap to the injected value", workers)
		}

		retry, err := oneShot(context.Background(), prog, lat, DefaultOptions())
		if err != nil {
			t.Fatalf("w=%d: retry after contained panic failed: %v", workers, err)
		}
		if got := retry.DumpSchemes() + retry.DumpSpecialized(); got != want {
			t.Errorf("w=%d: retry output differs from unfaulted reference", workers)
		}
	}
}

// TestRunGuardedAllocatesNothing: the panic containment every pipeline
// task runs inside allocates nothing when no SchedHooks are installed,
// the production configuration, so it adds no per-task cost a count can
// see.
func TestRunGuardedAllocatesNothing(t *testing.T) {
	pl := &pipeline{opts: DefaultOptions()}
	ran := 0
	task := func() { ran++ }
	for _, tc := range []struct {
		phase string
		scc   int
		proc  string
	}{{"F.0", 2, "p"}, {"F.1", 3, "p"}, {"F.2", -1, "p"}, {"F.3", -1, ""}} {
		allocs := testing.AllocsPerRun(100, func() {
			if !pl.runGuarded(tc.phase, tc.scc, tc.proc, task) {
				t.Fatal("task did not complete")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: runGuarded made %.1f allocations per task, want 0", tc.phase, allocs)
		}
	}
	if ran == 0 {
		t.Fatal("runGuarded never ran the task")
	}
}
