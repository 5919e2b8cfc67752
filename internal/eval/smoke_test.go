package eval

import (
	"context"
	"testing"
	"time"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/solver"
)

func TestCorpusSmoke(t *testing.T) {
	b := corpus.Generate("smoke", 42, 2000)
	t.Logf("insts=%d truths=%d", b.Insts, len(b.Truths))
	prog, err := asm.Parse(b.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	start := time.Now()
	res, err := solver.NewEngine().InferContext(context.Background(), prog, lattice.Default(), nil, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("procs=%d elapsed=%v", len(res.Procs), time.Since(start))
}

// TestCacheEffectivenessSmoke: the duplicate-leaf-heavy synthetic
// corpus must actually exercise both memo layers — a suite run with
// the shared caches has to report a nonzero scheme AND shape hit rate,
// or the phase-2 memo has silently stopped firing.
func TestCacheEffectivenessSmoke(t *testing.T) {
	s := RunSuite(QuickConfig())
	t.Logf("body dedup: %d hits / %d misses; scheme cache: %d hits / %d misses; shape cache: %d hits / %d misses",
		s.BodyDedupHits, s.BodyDedupMisses,
		s.SchemeCacheHits, s.SchemeCacheMisses, s.ShapeCacheHits, s.ShapeCacheMisses)
	if s.SchemeCacheHits == 0 {
		t.Error("suite run produced no scheme-cache hits")
	}
	if s.ShapeCacheHits == 0 {
		t.Error("suite run produced no shape-cache hits on the duplicate-leaf corpus")
	}
	if s.ShapeCacheHits+s.ShapeCacheMisses == 0 {
		t.Error("shape cache was never consulted")
	}
	if s.BodyDedupHits == 0 {
		t.Error("suite run produced no body-dedup hits on the duplicate-leaf corpus")
	}
}
