package solver

import (
	"os"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
)

// TestGenerateShardGoldenFixture regenerates the cache-compatibility
// fixture pair (testdata/cache_pr5_golden.{bin,dump}) that
// persist_golden_test.go pins the wire format against. The checked-in
// copy was last recorded at the v3 bump (body entries without raw
// constraint sets);
// regenerate only on a deliberate cacheFormatVersion/FPVersion bump,
// and bump those versions rather than regenerating to paper over an
// accidental wire change.
func TestGenerateShardGoldenFixture(t *testing.T) {
	if os.Getenv("RETYPD_GEN_FIXTURE") == "" {
		t.Skip("set RETYPD_GEN_FIXTURE=1 to regenerate")
	}
	b := corpus.Generate("shardgolden", 11, 600)
	prog, err := asm.Parse(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers = 1
	eng := NewEngine()
	res := must(eng.InferContext(bg, prog, lattice.Default(), nil, opts))
	f, err := os.Create("testdata/cache_pr5_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveCacheTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	os.WriteFile("testdata/cache_pr5_golden.dump",
		[]byte(res.DumpSchemes()+"\n===\n"+res.DumpSpecialized()), 0o644)
}
