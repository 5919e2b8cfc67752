package conc

import (
	"context"
	"runtime/debug"
	"sync"
)

// Task is one unit of executor work. Run receives a Submitter so that
// completing one unit can make further units runnable (the solver's
// readiness scheduler submits an SCC's callers the moment their last
// callee finishes) without threading the executor through every call
// site. Label is the task's diagnostic identity ("F.1 scc=3 proc=foo"):
// it costs nothing while tasks succeed and is attached to the
// *WorkerPanic when a panic escapes the task, so even a failure that
// slipped past a higher layer's containment names the work that died.
type Task struct {
	Label string
	Run   func(sub Submitter)
}

// Submitter enqueues tasks for execution. Submit may be called from
// inside a running task (the task goes to the submitting worker's own
// deque, LIFO, so freshly-unlocked work runs hot-in-cache) or from
// outside the pool before Run's seed returns (the task goes to the
// global injection queue).
type Submitter interface {
	Submit(t Task)
}

// SchedHooks lets tests perturb and observe executor scheduling without
// changing its semantics. All fields may be nil. The hooks exist so the
// determinism suite can prove output invariance under adversarial
// schedules and so the fault-injection harness can kill or stall
// specific tasks — production code never sets them.
type SchedHooks struct {
	// BeforeRun is called on the executing worker immediately before
	// each task runs (schedtest injects randomized delays here).
	BeforeRun func(worker int)
	// StealOrder returns the order in which worker self scans the other
	// workers' deques when its own deque and the global queue are empty.
	// It must return a permutation of [0, workers) values != self
	// (values == self or out of range are skipped). Nil means ascending
	// order starting after self.
	StealOrder func(self, workers int) []int
	// BeforeTask is invoked by schedulers built on the executor (the
	// solver's readiness pipeline) immediately before each identified
	// task body runs, INSIDE that scheduler's panic containment: a hook
	// that panics is reported as that task's structured failure, and a
	// hook that blocks delays it. phase is the pipeline phase ("F.0"
	// through "F.3"), name the task's SCC/procedure identity. This is
	// the seam internal/faultinject rides; the executor itself never
	// calls it.
	BeforeTask func(phase, name string)
}

// Executor runs tasks on a fixed pool of workers with per-worker
// deques and work stealing. Owners push and pop their own deque at the
// tail (LIFO — depth-first over freshly unlocked work keeps the ready
// frontier small and cache-hot); thieves and the global queue are
// consumed at the head (FIFO — stolen work is the oldest, coarsest
// ready work, the classic Blumofe/Leiserson split).
//
// All queues hang off one mutex: solver tasks are whole SCCs or whole
// procedures (microseconds to milliseconds), so a lock-per-transition
// design costs nothing measurable and keeps the quiescence test — the
// executor must detect "no task queued anywhere, none running" to
// terminate — trivially race-free. Idle workers park on a condition
// variable instead of spinning.
//
// A panic inside a task stops the pool (pending work is dropped) and
// surfaces as a *WorkerPanic carrying the task's label. Cancellation
// (RunPoolCtx) is checked at task boundaries only: a task that has
// started always runs to completion, so a cancelled pool never leaves
// a half-executed task behind — it drains and exits.
type Executor struct {
	mu        sync.Mutex
	cond      *sync.Cond
	deques    [][]Task // deques[w]: owner pops tail, thieves pop head
	global    []Task   // injection queue, FIFO
	pending   int      // tasks queued or running
	stopped   bool     // panic or cancellation observed: drain and exit
	cancelled bool     // stop came from context cancellation
	hooks     SchedHooks
	pval      *WorkerPanic
	// done is the run context's Done channel (nil when uncancellable).
	// next polls it at every task boundary, so a cancel stops the pool
	// from handing out tasks the moment it returns, not when the
	// watcher goroutine is next scheduled.
	done <-chan struct{}
}

// workerSub is the Submitter handed to tasks running on worker w.
type workerSub struct {
	e *Executor
	w int
}

func (s workerSub) Submit(t Task) { s.e.submit(s.w, t) }

// globalSub is the Submitter handed to Run's seed function; it injects
// into the global queue (no owning worker yet).
type globalSub struct{ e *Executor }

func (s globalSub) Submit(t Task) { s.e.submit(-1, t) }

// submit enqueues t on worker w's deque (w >= 0) or the global queue
// (w < 0) and wakes one parked worker.
func (e *Executor) submit(w int, t Task) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.pending++
	if w >= 0 {
		e.deques[w] = append(e.deques[w], t)
	} else {
		e.global = append(e.global, t)
	}
	e.mu.Unlock()
	e.cond.Signal()
}

// next blocks until worker w has a task to run or the pool is
// quiescent/stopped. ok == false means the worker should exit. This is
// the executor's task boundary: stop (panic or cancellation) is
// observed here, between tasks, never inside one.
func (e *Executor) next(w int) (Task, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if !e.stopped && e.done != nil {
			select {
			case <-e.done:
				e.stopped, e.cancelled = true, true
				e.cond.Broadcast()
			default:
			}
		}
		if e.stopped {
			return Task{}, false
		}
		// Own deque, tail (LIFO).
		if d := e.deques[w]; len(d) > 0 {
			t := d[len(d)-1]
			d[len(d)-1] = Task{}
			e.deques[w] = d[:len(d)-1]
			return t, true
		}
		// Global injection queue, head (FIFO).
		if len(e.global) > 0 {
			t := e.global[0]
			e.global[0] = Task{}
			e.global = e.global[1:]
			return t, true
		}
		// Steal: scan victims per the hook (or ascending after self),
		// taking the head — the oldest, coarsest work of the victim.
		order := e.stealOrder(w)
		for _, v := range order {
			if v == w || v < 0 || v >= len(e.deques) {
				continue
			}
			if d := e.deques[v]; len(d) > 0 {
				t := d[0]
				d[0] = Task{}
				e.deques[v] = d[1:]
				return t, true
			}
		}
		if e.pending == 0 {
			// Quiescent: nothing queued, nothing running anywhere.
			e.cond.Broadcast()
			return Task{}, false
		}
		e.cond.Wait()
	}
}

// stealOrder resolves the victim scan order for worker w. Callers hold
// mu; the hook runs under the lock, which is fine for test hooks.
func (e *Executor) stealOrder(w int) []int {
	if e.hooks.StealOrder != nil {
		return e.hooks.StealOrder(w, len(e.deques))
	}
	order := make([]int, 0, len(e.deques)-1)
	for i := 1; i < len(e.deques); i++ {
		order = append(order, (w+i)%len(e.deques))
	}
	return order
}

// stop halts the pool: queued work is dropped, running tasks finish,
// parked workers wake and exit.
func (e *Executor) stop(cancelled bool) {
	e.mu.Lock()
	e.stopped = true
	if cancelled {
		e.cancelled = true
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// runWorker is one worker's loop: pull, run, account, repeat.
func (e *Executor) runWorker(w int, once *sync.Once) {
	// cur is the label of the task this worker is currently running;
	// the deferred recover attaches it to the WorkerPanic so a residual
	// escape — one the owning scheduler's containment did not catch —
	// still names the work that died.
	var cur string
	defer func() {
		if r := recover(); r != nil {
			once.Do(func() { e.pval = &WorkerPanic{Value: r, Stack: debug.Stack(), Label: cur} })
			e.stop(false)
		}
	}()
	sub := workerSub{e: e, w: w}
	for {
		t, ok := e.next(w)
		if !ok {
			return
		}
		if e.hooks.BeforeRun != nil {
			e.hooks.BeforeRun(w)
		}
		cur = t.Label
		t.Run(sub)
		cur = ""
		e.mu.Lock()
		e.pending--
		quiescent := e.pending == 0
		e.mu.Unlock()
		if quiescent {
			e.cond.Broadcast()
		}
	}
}

// RunPool executes a dynamic task graph on Limit(workers) workers:
// seed submits the initially-ready tasks, tasks submit their
// successors, and RunPool returns when the pool is quiescent (every
// submitted task completed and no worker holds one). hooks may be nil.
// Worker 0 runs inline on the calling goroutine, so workers == 1 is
// fully sequential — no goroutines, deterministic LIFO order — which
// is the reference schedule the solver's determinism suite compares
// against. Task panics are re-raised on the caller as *WorkerPanic.
func RunPool(workers int, hooks *SchedHooks, seed func(sub Submitter)) {
	if err := RunPoolCtx(context.Background(), workers, hooks, seed); err != nil {
		// Background is never cancelled, so the only possible error is a
		// *WorkerPanic — re-raise it, preserving the legacy contract.
		panic(err)
	}
}

// RunPoolCtx is RunPool with cooperative cancellation: when ctx is
// cancelled the pool stops handing out tasks (running tasks finish —
// cancellation is observed at task boundaries only), drains, and
// RunPoolCtx returns ctx.Err(). An already-cancelled context returns
// immediately without running the seed or spawning any worker. A task
// panic stops the pool the same way and is returned (not re-raised) as
// a *WorkerPanic error carrying the task's label; a panic wins over a
// concurrent cancellation, since it is strictly more informative.
func RunPoolCtx(ctx context.Context, workers int, hooks *SchedHooks, seed func(sub Submitter)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Limit(workers)
	e := &Executor{deques: make([][]Task, w), done: ctx.Done()}
	e.cond = sync.NewCond(&e.mu)
	if hooks != nil {
		e.hooks = *hooks
	}

	// The watcher turns ctx cancellation into a pool stop, waking parked
	// workers (busy ones see it in next). Background/TODO contexts
	// (Done() == nil) skip it, so the uncancellable path spawns no extra
	// goroutine.
	var watchWG sync.WaitGroup
	watchDone := make(chan struct{})
	if ctx.Done() != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctx.Done():
				e.stop(true)
			case <-watchDone:
			}
		}()
	}

	seed(globalSub{e: e})

	var once sync.Once
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			e.runWorker(k, &once)
		}(k)
	}
	e.runWorker(0, &once)
	// Worker 0 exits only when stopped or quiescent; both states wake
	// the others, which then exit too.
	e.cond.Broadcast()
	wg.Wait()
	close(watchDone)
	watchWG.Wait()

	if e.pval != nil {
		return e.pval
	}
	// cancelled was set by a worker in next or by the watcher, each
	// joined above (the WaitGroups give the happens-before edge): queued
	// work was dropped.
	if e.cancelled {
		return ctx.Err()
	}
	return nil
}
