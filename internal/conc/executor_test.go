package conc

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPoolRunsEverything: a dynamic fan-out tree (each task spawns
// children up to a depth) runs every node exactly once at several
// worker counts.
func TestRunPoolRunsEverything(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var ran atomic.Int64
		var spawn func(depth int) Task
		spawn = func(depth int) Task {
			return Task{Run: func(sub Submitter) {
				ran.Add(1)
				if depth > 0 {
					sub.Submit(spawn(depth - 1))
					sub.Submit(spawn(depth - 1))
				}
			}}
		}
		RunPool(workers, nil, func(sub Submitter) {
			sub.Submit(spawn(6))
		})
		if got := ran.Load(); got != 127 { // 2^7 - 1 nodes
			t.Errorf("workers=%d: ran %d tasks, want 127", workers, got)
		}
	}
}

// TestRunPoolSequentialOrder: with one worker everything runs inline on
// the caller in deterministic LIFO (depth-first) order — the reference
// schedule.
func TestRunPoolSequentialOrder(t *testing.T) {
	var order []int
	mk := func(id int) Task { return Task{Run: func(Submitter) { order = append(order, id) }} }
	RunPool(1, nil, func(sub Submitter) {
		sub.Submit(Task{Run: func(s Submitter) {
			order = append(order, 0)
			s.Submit(mk(1))
			s.Submit(mk(2))
		}})
		sub.Submit(mk(3))
	})
	// Global queue is FIFO (task 0 then 3); worker-local is LIFO (2
	// before 1).
	want := []int{0, 2, 1, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRunPoolEmptySeed: a seed that submits nothing terminates.
func TestRunPoolEmptySeed(t *testing.T) {
	RunPool(4, nil, func(Submitter) {})
}

// TestRunPoolQuiescence: tasks submitted from deep inside the graph
// still complete before RunPool returns (no lost wakeups / premature
// quiescence).
func TestRunPoolQuiescence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var ran atomic.Int64
		const n = 200
		RunPool(4, nil, func(sub Submitter) {
			sub.Submit(Task{Run: func(s Submitter) {
				for i := 0; i < n; i++ {
					s.Submit(Task{Run: func(Submitter) { ran.Add(1) }})
				}
			}})
		})
		if got := ran.Load(); got != n {
			t.Fatalf("trial %d: ran %d, want %d", trial, got, n)
		}
	}
}

// TestRunPoolPanic: a task panic is re-raised on the caller as a
// *WorkerPanic and the pool still terminates.
func TestRunPoolPanic(t *testing.T) {
	defer func() {
		r := recover()
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *WorkerPanic", r, r)
		}
		if wp.Value != "boom" {
			t.Errorf("panic value = %v, want boom", wp.Value)
		}
		if wp.Label != "doomed" {
			t.Errorf("panic label = %q, want doomed", wp.Label)
		}
	}()
	RunPool(4, nil, func(sub Submitter) {
		for i := 0; i < 50; i++ {
			sub.Submit(Task{Run: func(Submitter) {}})
		}
		sub.Submit(Task{Label: "doomed", Run: func(Submitter) { panic("boom") }})
	})
	t.Fatal("RunPool returned instead of panicking")
}

// TestRunPoolHooks: BeforeRun sees every task, StealOrder is consulted
// with sane arguments, and a hostile (self-only, out-of-range) steal
// order is tolerated.
func TestRunPoolHooks(t *testing.T) {
	var before atomic.Int64
	var stealCalls atomic.Int64
	hooks := &SchedHooks{
		BeforeRun: func(worker int) {
			if worker < 0 || worker >= 4 {
				t.Errorf("BeforeRun worker = %d", worker)
			}
			before.Add(1)
		},
		StealOrder: func(self, workers int) []int {
			stealCalls.Add(1)
			if workers != 4 {
				t.Errorf("StealOrder workers = %d, want 4", workers)
			}
			// Hostile: self, out-of-range, then a valid permutation.
			out := []int{self, -1, workers}
			for i := 0; i < workers; i++ {
				if i != self {
					out = append(out, i)
				}
			}
			return out
		},
	}
	const n = 100
	var ran atomic.Int64
	RunPool(4, hooks, func(sub Submitter) {
		sub.Submit(Task{Run: func(s Submitter) {
			for i := 0; i < n-1; i++ {
				s.Submit(Task{Run: func(Submitter) { ran.Add(1) }})
			}
			ran.Add(1)
		}})
	})
	if ran.Load() != n {
		t.Errorf("ran %d, want %d", ran.Load(), n)
	}
	if before.Load() != n {
		t.Errorf("BeforeRun saw %d tasks, want %d", before.Load(), n)
	}
	if stealCalls.Load() == 0 {
		t.Error("StealOrder never consulted (expected idle workers to scan)")
	}
}

func TestRunPoolCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seeded := false
	err := RunPoolCtx(ctx, 4, nil, func(sub Submitter) { seeded = true })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seeded {
		t.Fatal("seed ran on a pre-cancelled context")
	}
}

// TestRunPoolCtxMidRunCancel: a cancel from inside a task ends an
// endless task graph, and no worker takes a task from the pool after
// the cancel returned — only the at most w-1 tasks other workers had
// already taken may start after it.
func TestRunPoolCtxMidRunCancel(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int64
		err := RunPoolCtx(ctx, w, nil, func(sub Submitter) {
			var spawn func() Task
			spawn = func() Task {
				return Task{Run: func(s Submitter) {
					if ctx.Err() != nil {
						late.Add(1)
					}
					if ran.Add(1) == 10 {
						cancel()
					}
					// Keep the graph alive indefinitely; only
					// cancellation can terminate the pool.
					s.Submit(spawn())
				}}
			}
			for i := 0; i < w; i++ {
				sub.Submit(spawn())
			}
		})
		if err != context.Canceled {
			t.Fatalf("w=%d: err = %v, want context.Canceled", w, err)
		}
		if n := late.Load(); n > int64(w-1) {
			t.Errorf("w=%d: %d tasks started after the cancel, want at most %d", w, n, w-1)
		}
	}
}

func TestRunPoolCtxPanicWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := RunPoolCtx(ctx, 2, nil, func(sub Submitter) {
		sub.Submit(Task{Label: "bad", Run: func(Submitter) {
			cancel()
			panic("boom")
		}})
	})
	wp, ok := err.(*WorkerPanic)
	if !ok {
		t.Fatalf("err = %v (%T), want *WorkerPanic", err, err)
	}
	if wp.Value != "boom" || wp.Label != "bad" {
		t.Fatalf("WorkerPanic = %+v, want Value=boom Label=bad", wp)
	}
}

func TestRunPoolCtxNoErrCleanRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var ran atomic.Int64
	err := RunPoolCtx(ctx, 4, nil, func(sub Submitter) {
		for i := 0; i < 100; i++ {
			sub.Submit(Task{Run: func(Submitter) { ran.Add(1) }})
		}
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("ran = %d, want 100", ran.Load())
	}
}
