package solver

import (
	"fmt"
	"strings"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/schedtest"
)

// The schedule-perturbation suite: the pipeline's determinism contract
// says output is byte-identical at any worker count under ANY schedule,
// but the default executor only ever explores a narrow slice of the
// possible schedules. These tests drive the work-stealing pool through
// seeded adversarial ones — randomized pre-task delays reorder
// completions, biased steal orders reorder acquisitions — and assert
// the dumps and the cache accounting never move. CI runs this file
// under -race, so the perturbed interleavings also double as a
// memory-model stress of the readiness graph's happens-before edges.

// perturbProg is the 4000-inst corpus point of the BENCH scaling claim.
func perturbProg(t testing.TB) *asm.Program {
	t.Helper()
	b := corpus.Generate("perturb", 42, 4000)
	prog, err := asm.Parse(b.Source)
	if err != nil {
		t.Fatalf("corpus does not parse: %v", err)
	}
	return prog
}

// handwrittenProgSrc packs the paper-shaped corner cases the generated
// corpus reaches only statistically into one small program: dedupable
// twin leaves, wrappers over class-equal callees, a mutually recursive
// SCC, and a diamond join above all of them. Under phase overlap every
// construct exercises a different readiness edge (member→rep F.1,
// member→rep F.2, multi-proc SCC, multi-parent signal).
const handwrittenProgSrc = `
proc twin_a
    mov eax, [ebp+8]
    mov ebx, [eax+4]
    mov eax, ebx
    ret
endproc

proc twin_b
    mov eax, [ebp+8]
    mov ebx, [eax+4]
    mov eax, ebx
    ret
endproc

proc even
    mov eax, [ebp+8]
    cmp eax, 0
    jz done
    sub eax, 1
    push eax
    call odd
    add esp, 4
done:
    ret
endproc

proc odd
    mov eax, [ebp+8]
    cmp eax, 0
    jz done
    sub eax, 1
    push eax
    call even
    add esp, 4
done:
    ret
endproc

proc left
    push 7
    call twin_a
    add esp, 4
    ret
endproc

proc right
    push 7
    call twin_b
    add esp, 4
    ret
endproc

proc top
    push 3
    call left
    add esp, 4
    push eax
    call right
    add esp, 4
    push eax
    call even
    add esp, 4
    ret
endproc
`

// statsKey summarizes every schedule-independent counter of one run.
// Hit/miss counts are individually invariant: single-flight means each
// distinct cacheable key misses exactly once per run no matter which
// worker got there first, and every other lookup is a hit.
func statsKey(res *Result) string {
	return fmt.Sprintf("scheme=%d/%d shape=%d/%d dedup=%d/%d",
		res.SchemeCacheHits, res.SchemeCacheMisses,
		res.ShapeCacheHits, res.ShapeCacheMisses,
		res.BodyDedupHits, res.BodyDedupMisses)
}

// runPerturbed infers prog under one (seed, workers) perturbation on a
// fresh engine; seed < 0 runs unperturbed.
func runPerturbed(prog *asm.Program, lat *lattice.Lattice, seed int64, workers int) *Result {
	opts := DefaultOptions()
	opts.Workers = workers
	if seed >= 0 {
		opts.SchedHooks = schedtest.New(seed).Hooks()
	}
	return must(oneShot(bg, prog, lat, opts))
}

// TestPerturbedDeterminism4000: seeded trials over the 4000-inst corpus
// cycling workers ∈ {1,2,4,8}: byte-identical DumpSchemes +
// DumpSpecialized and identical cache-stats invariants every time,
// always compared against the unperturbed sequential reference.
func TestPerturbedDeterminism4000(t *testing.T) {
	if testing.Short() {
		t.Skip("4000-inst perturbation sweep is slow under -race; skipped in -short")
	}
	prog := perturbProg(t)
	lat := lattice.Default()

	ref := runPerturbed(prog, lat, -1, 1)
	want, wantStats := dump(ref), statsKey(ref)

	workerCounts := []int{1, 2, 4, 8}
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		workers := workerCounts[trial%len(workerCounts)]
		res := runPerturbed(prog, lat, int64(trial), workers)
		if got := dump(res); got != want {
			t.Fatalf("trial %d (workers=%d): output diverged from unperturbed sequential reference (len %d vs %d)",
				trial, workers, len(got), len(want))
		}
		if got := statsKey(res); got != wantStats {
			t.Fatalf("trial %d (workers=%d): cache stats diverged: %s, want %s",
				trial, workers, got, wantStats)
		}
	}
}

// TestPerturbedDeterminismHandwritten: full 20-seed × worker-count
// sweep over the corner-case program, cheap enough to keep in -short.
func TestPerturbedDeterminismHandwritten(t *testing.T) {
	prog := asm.MustParse(handwrittenProgSrc)
	lat := lattice.Default()

	ref := runPerturbed(prog, lat, -1, 1)
	want, wantStats := dump(ref), statsKey(ref)
	if ref.BodyDedupHits == 0 {
		t.Fatal("handwritten program produced no dedup hits; the twins must dedup for this test to bite")
	}

	for seed := int64(0); seed < 20; seed++ {
		for _, workers := range []int{1, 2, 4, 8} {
			res := runPerturbed(prog, lat, seed, workers)
			if got := dump(res); got != want {
				t.Fatalf("seed %d workers %d: output diverged (len %d vs %d)", seed, workers, len(got), len(want))
			}
			if got := statsKey(res); got != wantStats {
				t.Fatalf("seed %d workers %d: cache stats diverged: %s, want %s", seed, workers, got, wantStats)
			}
		}
	}
}

// TestPerturbedSharedCaches: perturbation on top of SHARED memo caches
// (one engine for every run): later runs are served earlier runs'
// scheme and shape entries under adversarial schedules and must still
// be byte-stable. Body dedup is off, or the engine's body-class table
// would serve every later run before the memos are reached.
func TestPerturbedSharedCaches(t *testing.T) {
	prog := asm.MustParse(handwrittenProgSrc)
	lat := lattice.Default()

	want := dump(runPerturbed(prog, lat, -1, 1))
	eng := NewEngine()
	for seed := int64(0); seed < 10; seed++ {
		opts := DefaultOptions()
		opts.Workers = int(2 + seed%3)
		opts.NoBodyDedup = true
		opts.SchedHooks = schedtest.New(seed).Hooks()
		res := must(eng.InferContext(bg, prog, lat, nil, opts))
		if got := dump(res); got != want {
			t.Fatalf("seed %d: shared-cache perturbed run diverged", seed)
		}
		if seed > 0 && (res.SchemeCacheHits == 0 || res.ShapeCacheHits == 0) {
			t.Fatalf("seed %d: shared memos served nothing (scheme %d, shape %d hits)",
				seed, res.SchemeCacheHits, res.ShapeCacheHits)
		}
	}
}

// TestPerturbedIncremental: incremental replays ride the same readiness
// graph; a perturbed Reanalyze after an edit must match a from-scratch
// run of the edited program byte-for-byte, with the replay path
// genuinely exercised.
func TestPerturbedIncremental(t *testing.T) {
	lat := lattice.Default()
	src := corpus.Generate("perturb-inc", 5, 1200).Source
	prog1 := asm.MustParse(src)
	mutSrc := mutateProc(t, src, firstProcName(t, src))
	prog2 := asm.MustParse(mutSrc)

	for seed := int64(0); seed < 5; seed++ {
		opts := DefaultOptions()
		opts.Workers = int(1 + seed%4)
		opts.SchedHooks = schedtest.New(seed).Hooks()

		eng := NewEngine()
		must(eng.InferContext(bg, prog1, lat, nil, opts))
		inc := must(eng.ReanalyzeContext(bg, prog2, lat, nil, opts))
		if inc.ReplayedProcs == 0 {
			t.Fatalf("seed %d: edit dirtied everything; replay path not exercised", seed)
		}

		fresh := must(oneShot(bg, prog2, lat, DefaultOptions()))
		if dump(inc) != dump(fresh) {
			t.Fatalf("seed %d (workers=%d): perturbed incremental run diverged from from-scratch", seed, opts.Workers)
		}
	}
}

// firstProcName extracts the first procedure defined in src, so corpus
// programs can be mutated without hard-coding generator naming.
func firstProcName(t *testing.T, src string) string {
	t.Helper()
	i := strings.Index(src, "proc ")
	if i < 0 {
		t.Fatal("no proc in source")
	}
	rest := src[i+len("proc "):]
	return strings.Fields(rest)[0]
}
