package retypd

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"retypd/internal/corpus"
)

// persistReport is what each child process writes for the parent to
// compare: the full rendered inference output plus the memo stats.
type persistReport struct {
	Output string
	Stats  CacheStats
}

// childProgram is the corpus program both children analyze. Fresh
// processes intern in different orders by construction (the "load"
// child interns the cache file's contents before the program), so this
// exercises exactly the id-independence the wire forms promise.
func childProgram() *Program {
	b := corpus.Generate("persistproc", 41, 4000)
	return MustParseAsm(b.Source)
}

// TestCachePersistFreshProcess is the acceptance golden for cache
// persistence: a cache saved by one process and loaded by a second,
// genuinely fresh process (separate address space, separate intern
// tables) serves nonzero body/scheme/shape hits with byte-identical
// output. The test re-executes its own binary in two roles.
func TestCachePersistFreshProcess(t *testing.T) {
	switch os.Getenv("RETYPD_PERSIST_ROLE") {
	case "save":
		persistChildSave(t)
		return
	case "load":
		persistChildLoad(t)
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	dir := t.TempDir()
	run := func(role string) {
		cmd := exec.Command(exe, "-test.run", "^TestCachePersistFreshProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "RETYPD_PERSIST_ROLE="+role, "RETYPD_PERSIST_DIR="+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child failed: %v\n%s", role, err, out)
		}
		if !strings.Contains(string(out), "PASS") {
			t.Fatalf("%s child did not pass:\n%s", role, out)
		}
	}
	run("save")
	run("load")

	var saved, loaded persistReport
	readReport(t, filepath.Join(dir, "save.json"), &saved)
	readReport(t, filepath.Join(dir, "load.json"), &loaded)

	if saved.Output != loaded.Output {
		t.Error("fresh-process warm output differs from cold output byte-for-byte")
	}
	// A fully warm run serves every duplicate body from the persisted
	// body-class table, so its serves land in BodyDedupCrossHits rather
	// than the in-program BodyDedupHits counter.
	if loaded.Stats.SchemeHits == 0 || loaded.Stats.ShapeHits == 0 ||
		loaded.Stats.BodyDedupHits+loaded.Stats.BodyDedupCrossHits == 0 {
		t.Errorf("warm fresh process must hit every memo layer: scheme=%d shape=%d body=%d cross=%d",
			loaded.Stats.SchemeHits, loaded.Stats.ShapeHits,
			loaded.Stats.BodyDedupHits, loaded.Stats.BodyDedupCrossHits)
	}
	// The persisted entries must genuinely serve: the warm process may
	// only miss where results are uncacheable, never more than cold.
	if loaded.Stats.SchemeMisses > saved.Stats.SchemeMisses {
		t.Errorf("warm scheme misses %d exceed cold %d", loaded.Stats.SchemeMisses, saved.Stats.SchemeMisses)
	}
	if loaded.Stats.ShapeMisses > saved.Stats.ShapeMisses {
		t.Errorf("warm shape misses %d exceed cold %d", loaded.Stats.ShapeMisses, saved.Stats.ShapeMisses)
	}
}

// TestBodyClassPersistFreshProcess is the acceptance golden for the
// engine's persistent body-class layer: a cache saved after analyzing
// program A, loaded in a genuinely fresh process, serves whole
// procedures of program B — A's twin under a systematic rename, the
// shared-library case — without the front end running, byte-identical
// to a cold run of B. The test re-executes its own binary in three
// roles.
func TestBodyClassPersistFreshProcess(t *testing.T) {
	progA := func() *Program {
		return MustParseAsm(corpus.GenerateWithPrefix("bodyclass", "", 31, 2500).Source)
	}
	progB := func() *Program {
		return MustParseAsm(corpus.GenerateWithPrefix("bodyclass", "v2_", 31, 2500).Source)
	}
	dir := os.Getenv("RETYPD_PERSIST_DIR")
	switch os.Getenv("RETYPD_PERSIST_ROLE") {
	case "bodysave":
		eng := NewEngine(nil)
		eng.Infer(progA(), nil)
		if err := eng.SaveCache(filepath.Join(dir, "retypd.cache")); err != nil {
			t.Fatal(err)
		}
		return
	case "bodywarm":
		eng, err := LoadCache(filepath.Join(dir, "retypd.cache"))
		if err != nil {
			t.Fatal(err)
		}
		writeReport(t, filepath.Join(dir, "warm.json"), eng.Infer(progB(), nil))
		return
	case "bodycold":
		writeReport(t, filepath.Join(dir, "cold.json"), Infer(progB(), nil))
		return
	case "":
	default:
		return // a role belonging to another subprocess test
	}

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	dir = t.TempDir()
	run := func(role string) {
		cmd := exec.Command(exe, "-test.run", "^TestBodyClassPersistFreshProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "RETYPD_PERSIST_ROLE="+role, "RETYPD_PERSIST_DIR="+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child failed: %v\n%s", role, err, out)
		}
		if !strings.Contains(string(out), "PASS") {
			t.Fatalf("%s child did not pass:\n%s", role, out)
		}
	}
	run("bodysave")
	run("bodywarm")
	run("bodycold")

	var warm, cold persistReport
	readReport(t, filepath.Join(dir, "warm.json"), &warm)
	readReport(t, filepath.Join(dir, "cold.json"), &cold)
	if warm.Output != cold.Output {
		t.Error("cross-program warm output differs from cold output byte-for-byte")
	}
	if warm.Stats.BodyDedupCrossHits == 0 {
		t.Errorf("renamed twin program served no cross-program body classes: %+v", warm.Stats)
	}
}

// TestSessionPersistFreshProcess is the acceptance golden for session
// persistence at the public API: a session saved by one process and
// loaded by a second, genuinely fresh process replays an unchanged
// program entirely, byte-identical to a cold run.
func TestSessionPersistFreshProcess(t *testing.T) {
	prog := func() *Program {
		return MustParseAsm(corpus.Generate("sessproc", 43, 2500).Source)
	}
	dir := os.Getenv("RETYPD_PERSIST_DIR")
	switch os.Getenv("RETYPD_PERSIST_ROLE") {
	case "sesssave":
		eng := NewEngine(nil)
		writeReport(t, filepath.Join(dir, "cold.json"), eng.Infer(prog(), nil))
		if err := eng.SaveSession(filepath.Join(dir, "retypd.session")); err != nil {
			t.Fatal(err)
		}
		return
	case "sessload":
		eng, err := LoadSession(filepath.Join(dir, "retypd.session"), nil)
		if err != nil {
			t.Fatal(err)
		}
		writeReport(t, filepath.Join(dir, "warm.json"), eng.Reanalyze(prog()))
		return
	case "":
	default:
		return // a role belonging to another subprocess test
	}

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	dir = t.TempDir()
	run := func(role string) {
		cmd := exec.Command(exe, "-test.run", "^TestSessionPersistFreshProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "RETYPD_PERSIST_ROLE="+role, "RETYPD_PERSIST_DIR="+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s child failed: %v\n%s", role, err, out)
		}
		if !strings.Contains(string(out), "PASS") {
			t.Fatalf("%s child did not pass:\n%s", role, out)
		}
	}
	run("sesssave")
	run("sessload")

	var cold, warm persistReport
	readReport(t, filepath.Join(dir, "cold.json"), &cold)
	readReport(t, filepath.Join(dir, "warm.json"), &warm)
	if warm.Output != cold.Output {
		t.Error("fresh-process session replay differs from cold output byte-for-byte")
	}
	if warm.Stats.RecomputedProcs != 0 || warm.Stats.ReplayedProcs == 0 {
		t.Errorf("fresh-process replay of unchanged program: replayed=%d recomputed=%d",
			warm.Stats.ReplayedProcs, warm.Stats.RecomputedProcs)
	}
}

func persistChildSave(t *testing.T) {
	dir := os.Getenv("RETYPD_PERSIST_DIR")
	eng := NewEngine(nil)
	res := eng.Infer(childProgram(), nil)
	writeReport(t, filepath.Join(dir, "save.json"), res)
	if err := eng.SaveCache(filepath.Join(dir, "retypd.cache")); err != nil {
		t.Fatal(err)
	}
}

func persistChildLoad(t *testing.T) {
	dir := os.Getenv("RETYPD_PERSIST_DIR")
	eng, err := LoadCache(filepath.Join(dir, "retypd.cache"))
	if err != nil {
		t.Fatal(err)
	}
	sn, shn := eng.CacheLen()
	if sn == 0 || shn == 0 {
		t.Fatalf("loaded cache is empty: %d scheme, %d shape entries", sn, shn)
	}
	res := eng.Infer(childProgram(), nil)
	writeReport(t, filepath.Join(dir, "load.json"), res)
}

func writeReport(t *testing.T, path string, res *Result) {
	t.Helper()
	blob, err := json.Marshal(persistReport{Output: res.Report(), Stats: res.CacheStats()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readReport(t *testing.T, path string, into *persistReport) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, into); err != nil {
		t.Fatal(err)
	}
}

// TestEnginePublicAPI: the Engine quick-start — warm second run,
// incremental third — all byte-identical to one-shot Infer.
func TestEnginePublicAPI(t *testing.T) {
	src := `
proc use_fd
    mov ebx, [esp+4]
    push ebx
    call close
    add esp, 4
    ret
endproc

proc twice
    push 5
    call use_fd
    add esp, 4
    push eax
    call use_fd
    add esp, 4
    ret
endproc
`
	eng := NewEngine(nil)
	first := eng.Infer(MustParseAsm(src), nil)
	oneShot := Infer(MustParseAsm(src), nil)
	if first.Report() != oneShot.Report() {
		t.Error("engine output differs from one-shot Infer")
	}

	// Unchanged re-analysis: everything replays.
	again := eng.Reanalyze(MustParseAsm(src))
	if again.Report() != oneShot.Report() {
		t.Error("reanalysis of identical program changed output")
	}
	st := again.CacheStats()
	if st.ReplayedProcs != 2 || st.RecomputedProcs != 0 {
		t.Errorf("identical reanalysis: replayed=%d recomputed=%d, want 2/0", st.ReplayedProcs, st.RecomputedProcs)
	}

	// Mutate the leaf: its caller is an ancestor and recomputes too.
	mut := strings.Replace(src, "mov ebx, [esp+4]", "mov ebx, [esp+8]", 1)
	inc := eng.Reanalyze(MustParseAsm(mut))
	scratch := Infer(MustParseAsm(mut), nil)
	if inc.Report() != scratch.Report() {
		t.Error("incremental output differs from scratch")
	}
	st = inc.CacheStats()
	if st.RecomputedProcs != 2 {
		t.Errorf("mutating the callee of every proc should recompute both: %+v", st)
	}
}

// TestEngineReanalyzeWithoutSession: Reanalyze on a virgin engine is a
// full (but valid) run.
func TestEngineReanalyzeWithoutSession(t *testing.T) {
	eng := NewEngine(nil)
	prog := MustParseAsm("proc f\n    mov eax, [esp+4]\n    ret\nendproc\n")
	res := eng.Reanalyze(prog)
	if res.Scheme("f") == nil {
		t.Fatal("virgin-engine Reanalyze produced no scheme")
	}
	st := res.CacheStats()
	if st.ReplayedProcs != 0 {
		t.Errorf("virgin engine cannot replay: %+v", st)
	}
}

// TestLoadCacheFileAfterInferChangesNothing: an engine that has already
// filed body classes cannot load a cache file's body section, and the
// refusal comes before any section merges — LoadCacheFile errors and
// the scheme and shape memos keep exactly the entries they had.
func TestLoadCacheFileAfterInferChangesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "other.cache")
	other := NewEngine(nil)
	if _, err := other.InferContext(context.Background(), MustParseAsm(corpus.Generate("cachesrc", 3, 2000).Source), nil); err != nil {
		t.Fatal(err)
	}
	if err := other.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(nil)
	if _, err := eng.InferContext(context.Background(), MustParseAsm(corpus.Generate("cachedst", 4, 2000).Source), nil); err != nil {
		t.Fatal(err)
	}
	schemes, shapes := eng.CacheLen()
	if err := eng.LoadCacheFile(path); err == nil {
		t.Fatal("LoadCacheFile into an engine that filed body classes succeeded")
	}
	if s, sh := eng.CacheLen(); s != schemes || sh != shapes {
		t.Fatalf("refused LoadCacheFile changed the memos: %d/%d entries, had %d/%d", s, sh, schemes, shapes)
	}
}
