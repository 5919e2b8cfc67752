package solver

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
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
    mov eax, [esp+4]
    add eax, 1
    ret
endproc

proc leaf_b
    mov eax, [esp+4]
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
	eng := NewEngine()
	orig := asm.MustParse(engineProgSrc)
	must(eng.InferContext(bg, orig, lat, nil, DefaultOptions()))

	mutSrc := mutateProc(t, engineProgSrc, "leaf_a")
	mut := asm.MustParse(mutSrc)
	inc := must(eng.ReanalyzeContext(bg, mut, lat, nil, DefaultOptions()))
	scratch := must(oneShot(bg, mut, lat, DefaultOptions()))

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
	eng := NewEngine()
	orig := asm.MustParse(engineProgSrc)
	must(eng.InferContext(bg, orig, lat, nil, DefaultOptions()))
	inc := must(eng.ReanalyzeContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	scratch := must(oneShot(bg, asm.MustParse(engineProgSrc), lat, DefaultOptions()))
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
	eng := NewEngine()
	before := asm.MustParse(callsExtra + `
proc extra
    mov eax, [ebp+8]
    ret
endproc
`)
	must(eng.InferContext(bg, before, lat, nil, DefaultOptions()))
	after := asm.MustParse(callsExtra)
	inc := must(eng.ReanalyzeContext(bg, after, lat, nil, DefaultOptions()))
	scratch := must(oneShot(bg, asm.MustParse(callsExtra), lat, DefaultOptions()))
	if dumpAll(inc) != dumpAll(scratch) {
		t.Fatal("removal reanalysis differs from scratch")
	}
	if inc.RecomputedProcs == 0 {
		t.Error("caller of removed procedure was not recomputed")
	}

	// Added: session without extra, then it appears.
	eng2 := NewEngine()
	must(eng2.InferContext(bg, asm.MustParse(callsExtra), lat, nil, DefaultOptions()))
	inc2 := must(eng2.ReanalyzeContext(bg, asm.MustParse(callsExtra+withHelperTail()), lat, nil, DefaultOptions()))
	scratch2 := must(oneShot(bg, asm.MustParse(callsExtra+withHelperTail()), lat, DefaultOptions()))
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
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(mutual), lat, nil, DefaultOptions()))
	inc := must(eng.ReanalyzeContext(bg, asm.MustParse(split), lat, nil, DefaultOptions()))
	scratch := must(oneShot(bg, asm.MustParse(split), lat, DefaultOptions()))
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
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, opts))
	inc := must(eng.ReanalyzeContext(bg, asm.MustParse(renamed), lat, nil, opts))
	scratch := must(oneShot(bg, asm.MustParse(renamed), lat, opts))
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

	eng := NewEngine()
	must(eng.InferContext(bg, orig, lat, nil, DefaultOptions()))
	inc := must(eng.ReanalyzeContext(bg, mut, lat, nil, DefaultOptions()))
	scratch := must(oneShot(bg, mut, lat, DefaultOptions()))

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

	wantSCCs, cone := ancestorSCCs(cfg.BuildCallGraph(mut), target)
	wantProcs := len(cone)
	eng := NewEngine()
	must(eng.InferContext(bg, orig, lat, nil, opts))
	var c phaseCounter
	hooked := opts
	hooked.SchedHooks = c.hooks()
	inc := must(eng.ReanalyzeContext(bg, mut, lat, nil, hooked))
	if int(inc.RecomputedProcs) != wantProcs {
		t.Errorf("recomputed %d procedures, want the %d of the ancestor cone", inc.RecomputedProcs, wantProcs)
	}
	if got := c.n["F.1"]; got != wantSCCs {
		t.Errorf("F.1 tasks = %d, want one per dirty SCC (%d)", got, wantSCCs)
	}
	if int(inc.ReplayedProcs) != len(mut.Procs)-wantProcs {
		t.Errorf("replayed %d procedures, want every other one (%d)", inc.ReplayedProcs, len(mut.Procs)-wantProcs)
	}
	if dumpAll(inc) != dumpAll(must(oneShot(bg, mut, lat, opts))) {
		t.Error("incremental output differs from a from-scratch run")
	}

	// Best of 3 on both sides, for the log.
	const rounds = 3
	cold, incOnly := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		runtime.GC()
		t0 := time.Now()
		must(oneShot(bg, mut, lat, opts))
		cold = min(cold, time.Since(t0))

		must(eng.InferContext(bg, orig, lat, nil, opts)) // re-prime the session (untimed)
		runtime.GC()
		t0 = time.Now()
		must(eng.ReanalyzeContext(bg, mut, lat, nil, opts))
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

	eng := NewEngine()
	cold := must(eng.InferContext(bg, prog, lat, nil, DefaultOptions()))
	path := filepath.Join(t.TempDir(), "retypd.cache")
	if err := eng.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	eng2, st, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemeEntries == 0 || st.ShapeEntries == 0 {
		t.Fatalf("loaded cache is empty: %+v", st)
	}
	warm := must(eng2.InferContext(bg, asm.MustParse(b.Source), lat, nil, DefaultOptions()))

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
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	path := filepath.Join(t.TempDir(), "c.cache")
	if err := eng.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, path)
	if len(data) < 64 {
		t.Fatalf("implausibly small cache file: %d bytes", len(data))
	}
	data[len(data)/2] ^= 0x40
	e2 := NewEngine()
	if _, err := e2.LoadCacheData(data); err == nil {
		t.Fatal("corrupted cache file loaded without error")
	}
}

// midPointerSrc is engineProgSrc with mid passing leaf_a a pointer
// instead of the constant 7: the actual leaf_a observes moves while
// leaf_a's own body stays the same.
func midPointerSrc(t *testing.T) string {
	t.Helper()
	src := strings.Replace(engineProgSrc, "    push 7\n    call leaf_a\n",
		"    mov ecx, [esp+4]\n    mov edx, [ecx]\n    push ecx\n    call leaf_a\n", 1)
	if src == engineProgSrc {
		t.Fatal("edit did not apply")
	}
	return src
}

// removeProc returns src without the named procedure.
func removeProc(t *testing.T, src, proc string) string {
	t.Helper()
	start := strings.Index(src, "proc "+proc+"\n")
	if start < 0 {
		t.Fatalf("procedure %s not found in source", proc)
	}
	end := strings.Index(src[start:], "endproc\n")
	return src[:start] + src[start+end+len("endproc\n"):]
}

// specializedOf renders one procedure's F.3-specialized parameters.
func specializedOf(res *Result, p string) string {
	pr := res.Procs[p]
	var locs []string
	for loc := range pr.SpecializedIns {
		locs = append(locs, loc)
	}
	sort.Strings(locs)
	var b strings.Builder
	for _, loc := range locs {
		fmt.Fprintf(&b, "%s:\n%s", loc, pr.SpecializedIns[loc])
	}
	return b.String()
}

// wantRefined is the F.3-dirty set of a Reanalyze, computed from its
// definition (incrementalPlan) over the sessions before and after the
// run and the procedures it recomputed.
func wantRefined(before, after *session, dirty map[string]bool) map[string]bool {
	want := map[string]bool{}
	mark := func(obs []actualObs) {
		for _, o := range obs {
			if after.snap(o.key.callee) != nil {
				want[o.key.callee] = true
			}
		}
	}
	for i := range after.snaps {
		s := &after.snaps[i]
		switch old := before.snap(s.name); {
		case dirty[s.name]:
			want[s.name] = true
			mark(s.obs)
		case !old.refined || old.pr.HasOut != s.pr.HasOut || !slices.Equal(old.pr.FormalIns, s.pr.FormalIns):
			want[s.name] = true
		}
	}
	for i := range before.snaps {
		if s := &before.snaps[i]; dirty[s.name] || after.snap(s.name) == nil {
			mark(s.obs)
		}
	}
	return want
}

// checkRefinedOnly asserts that a Reanalyze from prev to inc refined
// exactly the procedures of want, each once, that every other procedure
// shares prev's *ProcResult, and that prev still renders as it did.
func checkRefinedOnly(t *testing.T, c *phaseCounter, want map[string]bool, prev, inc *Result, prevDump string) {
	t.Helper()
	for p, n := range c.refined {
		if !want[p] || n != 1 {
			t.Errorf("F.3 refined %s %d times, want %d", p, n, map[bool]int{true: 1}[want[p]])
		}
	}
	if len(c.refined) != len(want) {
		t.Errorf("F.3 items = %d, want one per F.3-dirty procedure (%d)", len(c.refined), len(want))
	}
	for p, pr := range inc.Procs {
		if shared := pr == prev.Procs[p]; shared == want[p] {
			t.Errorf("%s: result shared with the previous run = %v, want %v", p, shared, !want[p])
		}
	}
	if dumpAll(prev) != prevDump {
		t.Error("Reanalyze changed the previous Result")
	}
}

// TestReanalyzeRefinesMovedActuals: an edit to mid changes the actual
// it passes to leaf_a, whose body is unchanged. F.3 refines leaf_a
// again, and only the F.3-dirty procedures: the recomputed mid and top
// and the callees they observe. lonely, fully clean, keeps its
// previous *ProcResult.
func TestReanalyzeRefinesMovedActuals(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine()
	prev := must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	prevDump := dumpAll(prev)
	before := eng.sess

	src := midPointerSrc(t)
	var c phaseCounter
	opts := DefaultOptions()
	opts.SchedHooks = c.hooks()
	inc := must(eng.ReanalyzeContext(bg, asm.MustParse(src), lat, nil, opts))
	scratch := must(oneShot(bg, asm.MustParse(src), lat, DefaultOptions()))
	if got, want := dumpAll(inc), dumpAll(scratch); got != want {
		t.Fatalf("incremental output differs from scratch:\n--- incremental ---\n%s\n--- scratch ---\n%s", got, want)
	}
	if inc.RecomputedProcs != 2 {
		t.Errorf("recomputed %d procs, want 2 (mid, top)", inc.RecomputedProcs)
	}
	if specializedOf(prev, "leaf_a") == specializedOf(inc, "leaf_a") {
		t.Error("leaf_a's specialization did not move; the test exercises nothing")
	}
	want := map[string]bool{"leaf_a": true, "leaf_b": true, "mid": true, "top": true}
	if got := wantRefined(before, eng.sess, map[string]bool{"mid": true, "top": true}); !maps.Equal(got, want) {
		t.Errorf("F.3-dirty set by definition = %v, want %v", got, want)
	}
	checkRefinedOnly(t, &c, want, prev, inc, prevDump)
}

// TestReanalyzeDropsOrphanedSpecialization: when leaf_a loses its only
// caller's observation — mid is deleted, or mid no longer calls it —
// leaf_a's specialization goes although leaf_a itself is clean: the
// removed or recomputed caller's recorded observations make it
// F.3-dirty.
func TestReanalyzeDropsOrphanedSpecialization(t *testing.T) {
	lat := lattice.Default()
	for _, tc := range []struct{ name, src string }{
		{"caller removed", removeProc(t, engineProgSrc, "mid")},
		{"call removed", strings.Replace(engineProgSrc, "    call leaf_a\n", "    call abs\n", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine()
			prev := must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
			if len(prev.Procs["leaf_a"].SpecializedIns) == 0 {
				t.Fatal("leaf_a has no specialization to drop; the test exercises nothing")
			}
			inc := must(eng.ReanalyzeContext(bg, asm.MustParse(tc.src), lat, nil, DefaultOptions()))
			scratch := must(oneShot(bg, asm.MustParse(tc.src), lat, DefaultOptions()))
			if got, want := dumpAll(inc), dumpAll(scratch); got != want {
				t.Fatalf("incremental output differs from scratch:\n--- incremental ---\n%s\n--- scratch ---\n%s", got, want)
			}
			if n := len(inc.Procs["leaf_a"].SpecializedIns); n != 0 {
				t.Errorf("leaf_a keeps %d specialized parameters without a caller observing it", n)
			}
		})
	}
}

// TestReanalyzeRefinesOnlyF3Dirty: on the 4000-instruction corpus, a
// one-procedure edit makes F.3 refine exactly the F.3-dirty set — a
// small fraction of the program — while every other procedure shares
// its previous *ProcResult, the previous Result is left as it was, and
// the output equals a from-scratch run.
func TestReanalyzeRefinesOnlyF3Dirty(t *testing.T) {
	lat := lattice.Default()
	orig := asm.MustParse(corpus.Generate("engine", 77, 4000).Source)
	target := orig.Procs[len(orig.Procs)/2].Name
	src := mutateProc(t, corpus.Generate("engine", 77, 4000).Source, target)
	mut := asm.MustParse(src)

	eng := NewEngine()
	prev := must(eng.InferContext(bg, orig, lat, nil, DefaultOptions()))
	prevDump := dumpAll(prev)
	before := eng.sess
	var c phaseCounter
	opts := DefaultOptions()
	opts.SchedHooks = c.hooks()
	inc := must(eng.ReanalyzeContext(bg, mut, lat, nil, opts))
	if dumpAll(inc) != dumpAll(must(oneShot(bg, asm.MustParse(src), lat, DefaultOptions()))) {
		t.Fatal("incremental output differs from a from-scratch run")
	}
	_, cone := ancestorSCCs(cfg.BuildCallGraph(mut), target)
	if int(inc.RecomputedProcs) != len(cone) {
		t.Fatalf("recomputed %d procedures, want the %d of the ancestor cone", inc.RecomputedProcs, len(cone))
	}
	want := wantRefined(before, eng.sess, cone)
	if len(want) <= len(cone) || len(want) > len(mut.Procs)/10 {
		t.Errorf("F.3-dirty set has %d of %d procedures (cone %d); the edit should reach a few callees",
			len(want), len(mut.Procs), len(cone))
	}
	checkRefinedOnly(t, &c, want, prev, inc, prevDump)
}

// TestReanalyzeEditChain: a chain of edits — body changes, a call that
// passes an existing procedure a pointer and its removal, new callees,
// removed procedures, SCCs made and broken, and a save/load restart
// halfway — each re-analyzed against the previous step's session,
// equals a from-scratch run at every step. Results reused over several
// generations must still carry what a from-scratch run computes.
func TestReanalyzeEditChain(t *testing.T) {
	lat := lattice.Default()
	type proc struct {
		name  string
		lines []string
	}
	var procs []*proc
	for _, line := range strings.Split(corpus.Generate("chain", 11, 1500).Source, "\n") {
		switch line = strings.TrimSpace(line); {
		case strings.HasPrefix(line, "proc "):
			procs = append(procs, &proc{name: strings.TrimPrefix(line, "proc ")})
		case line == "endproc" || line == "" || len(procs) == 0:
		default:
			p := procs[len(procs)-1]
			p.lines = append(p.lines, line)
		}
	}
	source := func() string {
		var b strings.Builder
		for _, p := range procs {
			b.WriteString("proc " + p.name + "\n    " + strings.Join(p.lines, "\n    ") + "\nendproc\n")
		}
		return b.String()
	}
	r := rand.New(rand.NewSource(3))
	pick := func() *proc { return procs[r.Intn(len(procs))] }

	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(source()), lat, nil, DefaultOptions()))
	var loop *[2]*proc // the back edge the last SCC edit added
	var passer *proc   // the procedure the last pointer-passing edit changed
	for step := 0; step < 36; step++ {
		var what string
		switch step % 6 {
		case 0:
			p := pick()
			p.lines = append([]string{"xor edx, edx"}, p.lines...)
			what = "body of " + p.name
		case 1:
			passer = pick()
			q := pick()
			passer.lines = append([]string{"mov ecx, esp", "push ecx", "call " + q.name, "add esp, 4"}, passer.lines...)
			what = passer.name + " passes " + q.name + " a pointer"
		case 2:
			what = passer.name + " drops its " + passer.lines[2]
			passer.lines = passer.lines[4:]
		case 3:
			callee := &proc{name: fmt.Sprintf("chain_callee_%d", step), lines: []string{"mov eax, [esp+4]", "mov eax, [eax]", "ret"}}
			p := pick()
			p.lines = append([]string{"push ecx", "call " + callee.name, "add esp, 4"}, p.lines...)
			procs = append(procs, callee)
			what = "new callee of " + p.name
		case 4:
			i := r.Intn(len(procs))
			what = "removed " + procs[i].name
			procs = append(procs[:i:i], procs[i+1:]...)
		case 5:
			if loop != nil {
				loop[1].lines = loop[1].lines[1:]
				what, loop = "broke the SCC of "+loop[0].name, nil
				break
			}
			cg := cfg.BuildCallGraph(asm.MustParse(source()))
			for tries := 0; loop == nil; tries++ {
				if tries == 1000 {
					t.Fatal("no call edge to close into an SCC")
				}
				a := pick()
				for _, q := range procs {
					if len(cg.Callees[a.name]) > 0 && q.name == cg.Callees[a.name][0] && q != a {
						q.lines = append([]string{"call " + a.name}, q.lines...)
						loop = &[2]*proc{a, q}
					}
				}
			}
			what = "made an SCC of " + loop[0].name + " and " + loop[1].name
		}
		if step == 18 {
			var buf bytes.Buffer
			if err := eng.SaveSessionTo(&buf); err != nil {
				t.Fatal(err)
			}
			eng = NewEngine()
			if _, err := eng.LoadSessionData(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			what += ", after a session save/load"
		}
		src := source()
		inc := must(eng.ReanalyzeContext(bg, asm.MustParse(src), lat, nil, DefaultOptions()))
		if dumpAll(inc) != dumpAll(must(oneShot(bg, asm.MustParse(src), lat, DefaultOptions()))) {
			t.Fatalf("step %d (%s): incremental output differs from scratch", step, what)
		}
		if inc.ReplayedProcs == 0 {
			t.Fatalf("step %d (%s): nothing replayed", step, what)
		}
	}
}
