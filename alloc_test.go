package retypd

import (
	"runtime"
	"testing"

	"retypd/internal/lattice"
	"retypd/internal/solver"
)

// TestInferAllocGuard is the whole pipeline's deterministic allocation
// guard: one Infer of the 4000-instruction benchmark program at one
// worker (a fresh engine per run, so no memo is warm) allocates no more
// objects and bytes than the bounds below, about 1.2× what it made when
// they were measured (2026-10-19, go1.24 on linux/amd64: 78.7k objects
// and 6.58 MB per run, the same to within 0.01% over four processes).
// At one worker the counts repeat run to run, so a regression toward
// the pre-interning allocation volume, or new garbage of a few dozen
// objects per procedure, fails here on every host, where a wall-clock
// gate would not.
func TestInferAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxObjects = 95_000
		maxBytes   = 7_900_000
		runs       = 4
	)
	lat := lattice.Default()
	opts := solver.DefaultOptions()
	opts.Workers = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mustSolve(benchCorpus, lat, opts) // first use of process-wide tables
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		mustSolve(benchCorpus, lat, opts)
	}
	runtime.ReadMemStats(&m1)
	objects := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("one Infer at Workers=1: %.0f objects, %.2f MB", objects, bytes/1e6)
	if objects > maxObjects {
		t.Errorf("Infer allocated %.0f objects per run, bound %d", objects, maxObjects)
	}
	if bytes > maxBytes {
		t.Errorf("Infer allocated %.0f bytes per run, bound %d", bytes, maxBytes)
	}
}
