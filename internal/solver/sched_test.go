package solver

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/schedtest"
)

// Property tests for the readiness scheduler, complementing the levels
// test above it in the lineage (TestSCCLevelsPartition keeps checking
// the reference partition): instead of trusting the dumps, these record
// the scheduler's own event stream through the schedTrace seam and
// check the execution-order invariants directly, across worker counts
// and adversarial schedtest perturbations.

// schedRecorder accumulates the event stream of one run. The callback
// runs on worker goroutines; the mutex also gives each recorded event a
// single global order consistent with the scheduler's happens-before
// edges (every signal is preceded by the signaler's Done event).
type schedRecorder struct {
	mu     sync.Mutex
	events []schedEvent
}

func (r *schedRecorder) hook(ev schedEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// checkReadinessProperties validates one recorded run against the call
// graph: every SCC's F.1 and every procedure's F.2 ran exactly once,
// no F.1 started before all callee SCCs' F.1 completed, no F.2 started
// before its own SCC's F.1 completed, and no dedup translation ran
// before its representative's F.2 completed.
func checkReadinessProperties(t *testing.T, cg *cfg.CallGraph, order []string, events []schedEvent) {
	t.Helper()
	sccOf := map[string]int{}
	for i, scc := range cg.SCCs {
		for _, p := range scc {
			sccOf[p] = i
		}
	}
	procIdx := map[string]int{}
	for i, p := range order {
		procIdx[p] = i
	}
	// deps[i] = callee SCCs of SCC i (the readiness graph adds a rep
	// edge on top for dedup members; asserting the callee subset is
	// what the condensed call graph itself demands).
	deps := make([][]int, len(cg.SCCs))
	for i, scc := range cg.SCCs {
		set := map[int]bool{}
		for _, p := range scc {
			for _, callee := range cg.Callees[p] {
				if j, ok := sccOf[callee]; ok && j != i {
					set[j] = true
				}
			}
		}
		for j := range set {
			deps[i] = append(deps[i], j)
		}
		sort.Ints(deps[i])
	}

	f1Started := make([]int, len(cg.SCCs))
	f1Done := make([]bool, len(cg.SCCs))
	f2Started := make([]int, len(order))
	f2Done := make([]bool, len(order))
	for _, ev := range events {
		switch ev.kind {
		case evF1Start:
			f1Started[ev.idx]++
			for _, j := range deps[ev.idx] {
				if !f1Done[j] {
					t.Fatalf("SCC %d (%v) started F.1 before callee SCC %d (%v) finished",
						ev.idx, cg.SCCs[ev.idx], j, cg.SCCs[j])
				}
			}
		case evF1Done:
			f1Done[ev.idx] = true
		case evF2Start:
			f2Started[ev.idx]++
			if scc := sccOf[order[ev.idx]]; !f1Done[scc] {
				t.Fatalf("procedure %s started F.2 before its SCC %d finished F.1", order[ev.idx], scc)
			}
		case evF2Serve:
			if !f2Done[ev.aux] {
				t.Fatalf("member %s translated before representative %s finished F.2",
					order[ev.idx], order[ev.aux])
			}
		case evF2Done:
			f2Done[ev.idx] = true
		}
	}
	for i, n := range f1Started {
		if n != 1 || !f1Done[i] {
			t.Fatalf("SCC %d: F.1 started %d times, done=%v (want exactly once)", i, n, f1Done[i])
		}
	}
	for i, n := range f2Started {
		if n != 1 || !f2Done[i] {
			t.Fatalf("procedure %s: F.2 started %d times, done=%v (want exactly once)", order[i], n, f2Done[i])
		}
	}
}

// translationPairs extracts the dedup outcome of one run as a sorted
// "member<-rep" list — the externally checkable fingerprint of
// representative selection.
func translationPairs(order []string, events []schedEvent) []string {
	var pairs []string
	for _, ev := range events {
		if ev.kind == evF2Serve {
			pairs = append(pairs, order[ev.idx]+"<-"+order[ev.aux])
		}
	}
	sort.Strings(pairs)
	return pairs
}

// runTraced infers prog while recording the scheduler event stream.
func runTraced(t *testing.T, prog *asm.Program, seed int64, workers int) (*cfg.CallGraph, []string, []schedEvent, *Result) {
	t.Helper()
	rec := &schedRecorder{}
	opts := DefaultOptions()
	opts.Workers = workers
	opts.schedTrace = rec.hook
	if seed >= 0 {
		opts.SchedHooks = schedtest.New(seed).Hooks()
	}
	res := must(oneShot(bg, prog, lattice.Default(), opts))
	cg := cfg.BuildCallGraph(prog)
	// Mirror pipeline.initIndex: procedure indices in the event stream
	// follow the top-down SCC concatenation.
	var order []string
	for i := len(cg.SCCs) - 1; i >= 0; i-- {
		order = append(order, cg.SCCs[i]...)
	}
	return cg, order, rec.events, res
}

// TestReadinessExecutionProperties: the ordering and exactly-once
// invariants hold on the generated corpus for every worker count, with
// and without perturbation.
func TestReadinessExecutionProperties(t *testing.T) {
	prog := parallelProg(t)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, seed := range []int64{-1, 3, 17} {
			cg, order, events, _ := runTraced(t, prog, seed, workers)
			checkReadinessProperties(t, cg, order, events)
		}
	}
}

// TestReadinessHandwrittenProperties: same invariants on the
// corner-case program, whose mutual recursion and dedup wrappers hit
// the multi-proc-SCC and member→rep edges specifically.
func TestReadinessHandwrittenProperties(t *testing.T) {
	prog := asm.MustParse(handwrittenProgSrc)
	sawTranslation := false
	for _, workers := range []int{1, 2, 4, 8} {
		for _, seed := range []int64{-1, 0, 1, 2} {
			cg, order, events, _ := runTraced(t, prog, seed, workers)
			checkReadinessProperties(t, cg, order, events)
			if len(translationPairs(order, events)) > 0 {
				sawTranslation = true
			}
		}
	}
	if !sawTranslation {
		t.Fatal("no dedup translation observed; the member→rep readiness edge went untested")
	}
}

// TestReadinessRepsScheduleIndependent: representative selection is
// pinned by the sequential classification pre-pass, so the
// member<-representative translation pairs must be identical across
// every worker count and perturbation seed.
func TestReadinessRepsScheduleIndependent(t *testing.T) {
	prog := parallelProg(t)
	_, order, events, ref := runTraced(t, prog, -1, 1)
	want := translationPairs(order, events)
	if ref.BodyDedupHits == 0 {
		t.Skip("corpus produced no dedup hits; nothing to compare")
	}
	wantKey := strings.Join(want, ",")

	for _, workers := range []int{2, 4, 8} {
		for _, seed := range []int64{0, 1, 2, 3, 4} {
			_, order, events, res := runTraced(t, prog, seed, workers)
			got := strings.Join(translationPairs(order, events), ",")
			if got != wantKey {
				t.Fatalf("workers=%d seed=%d: representative assignment changed:\n got %s\nwant %s",
					workers, seed, got, wantKey)
			}
			if res.BodyDedupHits != ref.BodyDedupHits || res.BodyDedupMisses != ref.BodyDedupMisses {
				t.Fatalf("workers=%d seed=%d: dedup stats moved: %d/%d want %d/%d",
					workers, seed, res.BodyDedupHits, res.BodyDedupMisses, ref.BodyDedupHits, ref.BodyDedupMisses)
			}
		}
	}
}

// TestSchedTraceOrderIsHappensBefore sanity-checks the recorder itself:
// with one worker and no perturbation the stream must interleave F.1
// and F.2 (phase overlap), not batch all F.1 first — otherwise the
// suite would silently be testing the old barrier pipeline.
func TestSchedTraceOrderIsHappensBefore(t *testing.T) {
	prog := parallelProg(t)
	_, _, events, _ := runTraced(t, prog, -1, 1)
	lastF1 := -1
	firstF2 := len(events)
	for i, ev := range events {
		if ev.kind == evF1Start && i > lastF1 {
			lastF1 = i
		}
		if ev.kind == evF2Start && i < firstF2 {
			firstF2 = i
		}
	}
	if firstF2 > lastF1 {
		t.Fatalf("no F.1/F.2 overlap in the event stream (first F.2 at %d, last F.1 at %d): barrier behavior", firstF2, lastF1)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
}

// TestReadinessPoolRunsSCCsConcurrently replaces a wall-clock speedup
// gate with a proof of concurrency that holds on any CPU count: at
// Workers=4 the first pool task (an F.1) is held in its BeforeTask hook
// until a second pool task has started. Until the held SCC publishes,
// nothing that depends on it is ready, so the second task can only be
// another worker picking up an independent SCC. A pool that ran one
// task at a time would never start it; the deadline turns that into a
// failure instead of a hang. No more than Workers tasks are ever in
// their hooks at once, and the held schedule changes no output.
func TestReadinessPoolRunsSCCsConcurrently(t *testing.T) {
	const workers = 4
	lat := lattice.Default()
	prog := asm.MustParse(corpus.Generate("concurrent", 3, 4000).Source)

	var (
		mu                    sync.Mutex
		started, inHook, peak int
		gaveUp                bool
	)
	second := make(chan struct{})
	opts := DefaultOptions()
	opts.Workers = workers
	opts.SchedHooks = &conc.SchedHooks{BeforeTask: func(phase, _ string) {
		if phase != "F.1" && phase != "F.2" {
			return // F.0 and F.3 do not run on the readiness pool
		}
		mu.Lock()
		started++
		n := started
		inHook++
		peak = max(peak, inHook)
		mu.Unlock()
		switch n {
		case 1:
			select {
			case <-second:
			case <-time.After(time.Minute):
				mu.Lock()
				gaveUp = true
				mu.Unlock()
			}
		case 2:
			close(second)
		}
		mu.Lock()
		inHook--
		mu.Unlock()
	}}
	res := must(oneShot(bg, prog, lat, opts))

	if gaveUp {
		t.Fatal("no second task started while the first was held")
	}
	if peak > workers {
		t.Errorf("%d tasks were in flight at once, want at most Workers=%d", peak, workers)
	}
	seq := DefaultOptions()
	seq.Workers = 1
	if dumpAll(res) != dumpAll(must(oneShot(bg, prog, lat, seq))) {
		t.Error("output under the held schedule differs from the sequential run")
	}
}
