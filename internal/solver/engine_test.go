package solver

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
)

// engineProg has a call chain (top → mid → leaf_a) next to independent
// procedures, so dirtiness propagation to ancestors is observable.
const engineProgSrc = `
proc leaf_a
    mov eax, [ebp+8]
    add eax, 1
    ret
endproc

proc leaf_b
    mov eax, [ebp+8]
    add eax, 2
    ret
endproc

proc mid
    push 7
    call leaf_a
    add esp, 4
    ret
endproc

proc top
    push 3
    call mid
    add esp, 4
    push eax
    call leaf_b
    add esp, 4
    ret
endproc

proc lonely
    mov ecx, [ebp+8]
    mov eax, [ecx]
    ret
endproc
`

// The golden comparisons below reuse dumpAll from dedup_test.go: it
// covers schemes, specialized sketches, and the raw kept constraint
// sets.

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mutateProc returns src with one instruction prepended to the named
// procedure's body — a genuine semantic change to exactly one body.
func mutateProc(t *testing.T, src, proc string) string {
	t.Helper()
	marker := "proc " + proc + "\n"
	if !strings.Contains(src, marker) {
		t.Fatalf("procedure %s not found in source", proc)
	}
	return strings.Replace(src, marker, marker+"    mov ecx, 12345\n", 1)
}

// TestReanalyzeGolden: after mutating one procedure, Reanalyze must be
// byte-identical to a from-scratch run of the mutated program, and must
// replay everything outside the mutated procedure's ancestor cone.
func TestReanalyzeGolden(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine(0, 0)
	orig := asm.MustParse(engineProgSrc)
	eng.Infer(orig, lat, nil, DefaultOptions())

	mutSrc := mutateProc(t, engineProgSrc, "leaf_a")
	mut := asm.MustParse(mutSrc)
	inc := eng.Reanalyze(mut, lat, nil, DefaultOptions())
	scratch := Infer(mut, lat, nil, DefaultOptions())

	if got, want := dumpAll(inc), dumpAll(scratch); got != want {
		t.Fatalf("incremental output differs from scratch:\n--- incremental ---\n%s\n--- scratch ---\n%s", got, want)
	}
	// leaf_a changed; mid and top are its ancestors. leaf_b and lonely
	// must be replayed.
	if inc.RecomputedProcs != 3 {
		t.Errorf("recomputed %d procs, want 3 (leaf_a, mid, top)", inc.RecomputedProcs)
	}
	if inc.ReplayedProcs != 2 {
		t.Errorf("replayed %d procs, want 2 (leaf_b, lonely)", inc.ReplayedProcs)
	}
}

// TestReanalyzeNoChange: re-analyzing an identical program replays
// every procedure and still matches scratch output.
func TestReanalyzeNoChange(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine(0, 0)
	orig := asm.MustParse(engineProgSrc)
	eng.Infer(orig, lat, nil, DefaultOptions())
	inc := eng.Reanalyze(asm.MustParse(engineProgSrc), lat, nil, DefaultOptions())
	scratch := Infer(asm.MustParse(engineProgSrc), lat, nil, DefaultOptions())
	if got, want := dumpAll(inc), dumpAll(scratch); got != want {
		t.Fatalf("no-change reanalysis output differs from scratch")
	}
	if inc.RecomputedProcs != 0 || inc.ReplayedProcs != 5 {
		t.Errorf("no-change run: recomputed=%d replayed=%d, want 0/5", inc.RecomputedProcs, inc.ReplayedProcs)
	}
}

// TestReanalyzeProcAddedRemoved: adding a procedure that an existing
// caller already referenced (previously external) must dirty the
// caller; removing one must dirty its former callers likewise.
func TestReanalyzeProcAddedRemoved(t *testing.T) {
	lat := lattice.Default()
	callsExtra := strings.Replace(engineProgSrc, "proc lonely\n", `proc caller_x
    push 1
    call extra
    add esp, 4
    ret
endproc

proc lonely
`, 1)

	// Removed: session over (callsExtra + extra), then extra vanishes.
	eng := NewEngine(0, 0)
	before := asm.MustParse(callsExtra + `
proc extra
    mov eax, [ebp+8]
    ret
endproc
`)
	eng.Infer(before, lat, nil, DefaultOptions())
	after := asm.MustParse(callsExtra)
	inc := eng.Reanalyze(after, lat, nil, DefaultOptions())
	scratch := Infer(asm.MustParse(callsExtra), lat, nil, DefaultOptions())
	if dumpAll(inc) != dumpAll(scratch) {
		t.Fatal("removal reanalysis differs from scratch")
	}
	if inc.RecomputedProcs == 0 {
		t.Error("caller of removed procedure was not recomputed")
	}

	// Added: session without extra, then it appears.
	eng2 := NewEngine(0, 0)
	eng2.Infer(asm.MustParse(callsExtra), lat, nil, DefaultOptions())
	inc2 := eng2.Reanalyze(asm.MustParse(callsExtra+withHelperTail()), lat, nil, DefaultOptions())
	scratch2 := Infer(asm.MustParse(callsExtra+withHelperTail()), lat, nil, DefaultOptions())
	if dumpAll(inc2) != dumpAll(scratch2) {
		t.Fatal("addition reanalysis differs from scratch")
	}
}

func withHelperTail() string {
	return `
proc extra
    mov eax, [ebp+8]
    ret
endproc
`
}

// TestReanalyzeSCCMembershipChange: breaking a mutual recursion dirties
// the procedure whose own body did not change but whose SCC shrank.
func TestReanalyzeSCCMembershipChange(t *testing.T) {
	lat := lattice.Default()
	mutual := `
proc ping
    push 1
    call pong
    add esp, 4
    ret
endproc

proc pong
    push 2
    call ping
    add esp, 4
    ret
endproc
`
	// pong stops calling ping: {ping,pong} splits into {ping}, {pong}.
	split := strings.Replace(mutual, "    call ping\n", "    call abs\n", 1)
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(mutual), lat, nil, DefaultOptions())
	inc := eng.Reanalyze(asm.MustParse(split), lat, nil, DefaultOptions())
	scratch := Infer(asm.MustParse(split), lat, nil, DefaultOptions())
	if dumpAll(inc) != dumpAll(scratch) {
		t.Fatal("SCC-split reanalysis differs from scratch")
	}
	if inc.RecomputedProcs != 2 {
		t.Errorf("recomputed %d procs, want 2 (both halves of the split SCC)", inc.RecomputedProcs)
	}
}

// TestReanalyzeRegisterRename: a scratch-register rename (ecx→edx) is
// body-fingerprint-equivalent and invisible to every output, so the
// whole program replays and still matches from-scratch output.
func TestReanalyzeRegisterRename(t *testing.T) {
	lat := lattice.Default()
	renamed := strings.Replace(engineProgSrc, "mov ecx, [ebp+8]", "mov edx, [ebp+8]", 1)
	renamed = strings.Replace(renamed, "mov eax, [ecx]", "mov eax, [edx]", 1)
	if renamed == engineProgSrc {
		t.Fatal("rename did not apply")
	}
	opts := DefaultOptions()
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(engineProgSrc), lat, nil, opts)
	inc := eng.Reanalyze(asm.MustParse(renamed), lat, nil, opts)
	scratch := Infer(asm.MustParse(renamed), lat, nil, opts)
	if dumpAll(inc) != dumpAll(scratch) {
		t.Fatal("register-renamed reanalysis differs from scratch")
	}
	if inc.ReplayedProcs != 5 {
		t.Errorf("replayed %d procs, want 5", inc.ReplayedProcs)
	}
}

// TestReanalyzeCorpusGolden: the acceptance golden — mutate one
// procedure of the 4000-instruction corpus; incremental output must be
// byte-identical to from-scratch, with the vast majority of procedures
// replayed.
func TestReanalyzeCorpusGolden(t *testing.T) {
	lat := lattice.Default()
	b := corpus.Generate("engine", 77, 4000)
	orig := asm.MustParse(b.Source)

	mutSrc := mutateProc(t, b.Source, orig.Procs[len(orig.Procs)/2].Name)
	mut := asm.MustParse(mutSrc)

	eng := NewEngine(0, 0)
	eng.Infer(orig, lat, nil, DefaultOptions())
	inc := eng.Reanalyze(mut, lat, nil, DefaultOptions())
	scratch := Infer(mut, lat, nil, DefaultOptions())

	if got, want := dumpAll(inc), dumpAll(scratch); got != want {
		t.Fatal("incremental corpus output differs from scratch output")
	}
	total := inc.ReplayedProcs + inc.RecomputedProcs
	if total != uint64(len(mut.Procs)) {
		t.Errorf("replayed+recomputed = %d, want %d", total, len(mut.Procs))
	}
	if inc.RecomputedProcs == 0 || inc.ReplayedProcs < total*9/10 {
		t.Errorf("expected ≥90%% replays after a 1-procedure mutation: replayed=%d recomputed=%d",
			inc.ReplayedProcs, inc.RecomputedProcs)
	}
}

// TestReanalyzeSpeedup: on the 4000-inst corpus, Reanalyze after a
// 1-procedure mutation does only the mutated procedure's work — it
// recomputes exactly the procedures of the mutation's ancestor cone,
// with one F.1 task per dirty SCC, and replays every other procedure —
// and its output equals a from-scratch run. The speedup over a cold
// Infer is logged, not asserted: wall-clock ratios on a shared host
// measure the host as much as the code.
func TestReanalyzeSpeedup(t *testing.T) {
	lat := lattice.Default()
	b := corpus.Generate("engine", 77, 4000)
	orig := asm.MustParse(b.Source)

	// Mutate a top-level (uncalled) procedure — the realistic "edit one
	// function" case, whose ancestor cone is just itself.
	cg := cfg.BuildCallGraph(orig)
	called := map[string]bool{}
	for p, callees := range cg.Callees {
		for _, c := range callees {
			if c != p {
				called[c] = true
			}
		}
	}
	target := ""
	for _, p := range orig.Procs {
		if !called[p.Name] {
			target = p.Name
			break
		}
	}
	if target == "" {
		t.Fatal("corpus has no uncalled procedure")
	}
	mut := asm.MustParse(mutateProc(t, b.Source, target))

	opts := DefaultOptions()
	opts.Workers = 1

	wantSCCs, wantProcs := ancestorSCCs(cfg.BuildCallGraph(mut), target)
	eng := NewEngine(0, 0)
	eng.Infer(orig, lat, nil, opts)
	var c phaseCounter
	hooked := opts
	hooked.SchedHooks = c.hooks()
	inc := eng.Reanalyze(mut, lat, nil, hooked)
	if int(inc.RecomputedProcs) != wantProcs {
		t.Errorf("recomputed %d procedures, want the %d of the ancestor cone", inc.RecomputedProcs, wantProcs)
	}
	if got := c.n["F.1"]; got != wantSCCs {
		t.Errorf("F.1 tasks = %d, want one per dirty SCC (%d)", got, wantSCCs)
	}
	if int(inc.ReplayedProcs) != len(mut.Procs)-wantProcs {
		t.Errorf("replayed %d procedures, want every other one (%d)", inc.ReplayedProcs, len(mut.Procs)-wantProcs)
	}
	if dumpAll(inc) != dumpAll(Infer(mut, lat, nil, opts)) {
		t.Error("incremental output differs from a from-scratch run")
	}

	// Best of 3 on both sides, for the log.
	const rounds = 3
	cold, incOnly := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		runtime.GC()
		t0 := time.Now()
		Infer(mut, lat, nil, opts)
		cold = min(cold, time.Since(t0))

		eng.Infer(orig, lat, nil, opts) // re-prime the session (untimed)
		runtime.GC()
		t0 = time.Now()
		eng.Reanalyze(mut, lat, nil, opts)
		incOnly = min(incOnly, time.Since(t0))
	}
	t.Logf("cold=%v incremental=%v speedup=%.1f×", cold, incOnly, float64(cold)/float64(incOnly))
}

// TestEngineSaveLoadRoundTrip: a cache saved and loaded back (same
// process, full file round trip) serves scheme and shape hits on a
// fresh engine with byte-identical output.
func TestEngineSaveLoadRoundTrip(t *testing.T) {
	lat := lattice.Default()
	b := corpus.Generate("persist", 99, 2000)
	prog := asm.MustParse(b.Source)

	eng := NewEngine(0, 0)
	cold := eng.Infer(prog, lat, nil, DefaultOptions())
	path := filepath.Join(t.TempDir(), "retypd.cache")
	if err := eng.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	eng2, st, err := LoadCache(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemeEntries == 0 || st.ShapeEntries == 0 {
		t.Fatalf("loaded cache is empty: %+v", st)
	}
	warm := eng2.Infer(asm.MustParse(b.Source), lat, nil, DefaultOptions())

	if dumpAll(cold) != dumpAll(warm) {
		t.Fatal("warm-cache output differs from cold output")
	}
	// The loaded body table carries published entries for every class,
	// so the warm run's duplicates — including each class's first
	// occurrence — serve from stored entries (cross-program hits), not
	// from an in-program representative.
	if warm.SchemeCacheHits == 0 || warm.ShapeCacheHits == 0 || warm.BodyDedupCrossHits == 0 {
		t.Errorf("warm run should hit every layer: scheme=%d shape=%d bodyCross=%d",
			warm.SchemeCacheHits, warm.ShapeCacheHits, warm.BodyDedupCrossHits)
	}
	// The loaded entries must actually serve: the warm run's misses can
	// only come from uncacheable results, so they must not exceed the
	// cold run's.
	if warm.SchemeCacheMisses > cold.SchemeCacheMisses {
		t.Errorf("warm scheme misses %d > cold %d", warm.SchemeCacheMisses, cold.SchemeCacheMisses)
	}
}

// TestEngineLoadRejectsCorruption: a flipped byte must fail the
// checksum, not decode garbage.
func TestEngineLoadRejectsCorruption(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(engineProgSrc), lat, nil, DefaultOptions())
	path := filepath.Join(t.TempDir(), "c.cache")
	if err := eng.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, path)
	if len(data) < 64 {
		t.Fatalf("implausibly small cache file: %d bytes", len(data))
	}
	data[len(data)/2] ^= 0x40
	e2 := NewEngine(0, 0)
	if _, err := e2.LoadCacheData(data); err == nil {
		t.Fatal("corrupted cache file loaded without error")
	}
}
