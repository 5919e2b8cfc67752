package solver

import (
	"bytes"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/schedtest"
)

// testdata/cache_pr5_golden.{bin,dump} pin the persisted cache wire
// format (v3: scheme + shape + body-class sections). The pair was first
// recorded before the body section existed and regenerated on the v2
// bump that added it and on the v3 bump that dropped raw constraint
// sets from body entries, each time with an unchanged dump.
// These tests pin the compatibility contract: the checked-in blob loads
// into today's caches, round-trips byte-identically, and serves a warm
// run whose output matches the recorded dump with zero cache misses.
// TestGenerateShardGoldenFixture (fixgen_test.go) regenerates the pair
// if the wire format ever changes version.

const goldenBin = "testdata/cache_pr5_golden.bin"
const goldenDump = "testdata/cache_pr5_golden.dump"

// goldenProg is the exact corpus the fixture was recorded from.
func goldenProg(t *testing.T) *asm.Program {
	t.Helper()
	return asm.MustParse(corpus.Generate("shardgolden", 11, 600).Source)
}

// TestPR5GoldenLoadsIntoShardedCaches: the unsharded blob decodes, with
// entries landing in both cache layers.
func TestPR5GoldenLoadsIntoShardedCaches(t *testing.T) {
	_, st, err := LoadCache(goldenBin)
	if err != nil {
		t.Fatalf("pre-sharding golden no longer loads: %v", err)
	}
	if st.SchemeEntries == 0 || st.ShapeEntries == 0 {
		t.Fatalf("golden decoded but empty: %+v", st)
	}
	if st.SkippedShapeEntries != 0 {
		t.Errorf("golden shape entries skipped: %+v (lattice signature drift?)", st)
	}
}

// TestPR5GoldenRoundTripBytes: load→save must reproduce the unsharded
// bytes exactly — the sharded export's global recency stamps put
// entries back in the order the blob recorded.
func TestPR5GoldenRoundTripBytes(t *testing.T) {
	orig := readFile(t, goldenBin)
	eng, _, err := LoadCache(goldenBin)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveCacheTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), orig) {
		t.Fatalf("sharded round-trip changed the wire bytes (len %d vs %d)", buf.Len(), len(orig))
	}
}

// TestPR5GoldenWarmRun: inference on the warm engine must reproduce the
// recorded dump byte-for-byte and never miss either cache — every
// fingerprint in the program was recorded in the blob.
func TestPR5GoldenWarmRun(t *testing.T) {
	eng, _, err := LoadCache(goldenBin)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers = 1
	res := must(eng.InferContext(bg, goldenProg(t), lattice.Default(), nil, opts))

	want := string(readFile(t, goldenDump))
	if got := res.DumpSchemes() + "\n===\n" + res.DumpSpecialized(); got != want {
		t.Fatalf("warm run diverged from recorded dump (len %d vs %d)", len(got), len(want))
	}
	if res.SchemeCacheMisses != 0 || res.ShapeCacheMisses != 0 {
		t.Fatalf("warm run missed: scheme %d/%d shape %d/%d (want 0 misses)",
			res.SchemeCacheHits, res.SchemeCacheMisses, res.ShapeCacheHits, res.ShapeCacheMisses)
	}
	if res.SchemeCacheHits == 0 || res.ShapeCacheHits == 0 {
		t.Fatal("warm run hit nothing; the golden is not exercising the caches")
	}
}

// TestPR5GoldenWarmPerturbed: the same warm run under work-stealing
// with schedtest perturbation — cache residency must not open a
// schedule dependence.
func TestPR5GoldenWarmPerturbed(t *testing.T) {
	want := string(readFile(t, goldenDump))
	for seed := int64(0); seed < 5; seed++ {
		eng, _, err := LoadCache(goldenBin)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Workers = 4
		opts.SchedHooks = schedtest.New(seed).Hooks()
		res := must(eng.InferContext(bg, goldenProg(t), lattice.Default(), nil, opts))
		if got := res.DumpSchemes() + "\n===\n" + res.DumpSpecialized(); got != want {
			t.Fatalf("seed %d: perturbed warm run diverged from recorded dump", seed)
		}
		if res.SchemeCacheMisses != 0 || res.ShapeCacheMisses != 0 {
			t.Fatalf("seed %d: perturbed warm run missed (scheme %d, shape %d misses)",
				seed, res.SchemeCacheMisses, res.ShapeCacheMisses)
		}
	}
}
