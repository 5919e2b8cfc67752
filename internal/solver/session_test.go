package solver

import (
	"bytes"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"retypd/internal/asm"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
)

// TestSessionSaveLoadRoundTrip: a session saved and loaded into a fresh
// engine replays an unchanged program entirely (zero recomputed
// procedures) with output byte-identical to a cold run, and survives an
// edit the same way a live session does.
func TestSessionSaveLoadRoundTrip(t *testing.T) {
	lat := lattice.Default()
	b := corpus.Generate("session", 7, 800)
	prog := asm.MustParse(b.Source)
	opts := DefaultOptions()

	eng := NewEngine()
	cold := must(eng.InferContext(bg, prog, lat, nil, opts))
	path := filepath.Join(t.TempDir(), "retypd.session")
	if err := eng.SaveSession(path); err != nil {
		t.Fatal(err)
	}

	eng2, procs, err := LoadSession(path)
	if err != nil {
		t.Fatal(err)
	}
	if procs != len(prog.Procs) {
		t.Fatalf("loaded %d procedure snapshots, program has %d", procs, len(prog.Procs))
	}
	warm := must(eng2.ReanalyzeContext(bg, asm.MustParse(b.Source), lat, nil, opts))
	if warm.RecomputedProcs != 0 || warm.ReplayedProcs != uint64(len(prog.Procs)) {
		t.Errorf("unchanged program after session load: replayed=%d recomputed=%d (want %d/0)",
			warm.ReplayedProcs, warm.RecomputedProcs, len(prog.Procs))
	}
	if dumpAll(cold) != dumpAll(warm) {
		t.Error("session-replayed output differs from cold output")
	}

	// An edit against the loaded session: only the ancestor cone
	// recomputes, and output matches a from-scratch run of the edit.
	mutSrc := mutateProc(t, b.Source, prog.Procs[0].Name)
	mut := asm.MustParse(mutSrc)
	eng3, _, err := LoadSession(path)
	if err != nil {
		t.Fatal(err)
	}
	inc := must(eng3.ReanalyzeContext(bg, mut, lat, nil, opts))
	if inc.RecomputedProcs == 0 || inc.ReplayedProcs == 0 {
		t.Errorf("edit after session load: replayed=%d recomputed=%d (want both nonzero)",
			inc.ReplayedProcs, inc.RecomputedProcs)
	}
	if dumpAll(must(oneShot(bg, mut, lat, opts))) != dumpAll(inc) {
		t.Error("session-incremental output differs from from-scratch output of the edit")
	}
}

// TestSessionWireRoundTripBytes: save → load → save must reproduce the
// session bytes exactly (the wire form is canonical).
func TestSessionWireRoundTripBytes(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	var first bytes.Buffer
	if err := eng.SaveSessionTo(&first); err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine()
	if _, err := eng2.LoadSessionData(first.Bytes()); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := eng2.SaveSessionTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("session round-trip changed the wire bytes (len %d vs %d)",
			first.Len(), second.Len())
	}
}

// TestSessionNoSession: saving before any run reports ErrNoSession.
func TestSessionNoSession(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEngine().SaveSessionTo(&buf); err != ErrNoSession {
		t.Fatalf("save on a fresh engine: got %v, want ErrNoSession", err)
	}
}

// TestSessionLoadRejectsCorruption: a flipped byte fails the checksum.
func TestSessionLoadRejectsCorruption(t *testing.T) {
	lat := lattice.Default()
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	var buf bytes.Buffer
	if err := eng.SaveSessionTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x40
	if _, err := NewEngine().LoadSessionData(data); err == nil {
		t.Fatal("corrupted session file loaded cleanly")
	}
}

// TestSessionZeroWarmupSpeedup: load-session + Reanalyze of the
// unchanged program does no analysis work — the zero-warm-up contract a
// service restart relies on. Every procedure replays its snapshot and
// none is recomputed, no F.1 task runs, the readiness pool schedules no
// task at all (each replay is an inline F.2 item), and the output
// equals the cold run's. Measured in the service configuration: all
// cores. The speedup over a cold Infer is logged, not asserted:
// wall-clock ratios on a shared host measure the host as much as the
// code.
func TestSessionZeroWarmupSpeedup(t *testing.T) {
	lat := lattice.Default()
	b := corpus.Generate("session", 7, 1500)
	opts := DefaultOptions()

	eng := NewEngine()
	cold := must(eng.InferContext(bg, asm.MustParse(b.Source), lat, nil, opts))
	var sess bytes.Buffer
	if err := eng.SaveSessionTo(&sess); err != nil {
		t.Fatal(err)
	}

	var c phaseCounter
	var pooled atomic.Int64
	hooked := opts
	hooked.SchedHooks = c.hooks()
	hooked.schedTrace = func(schedEvent) { pooled.Add(1) }
	prog := asm.MustParse(b.Source)
	t0 := time.Now()
	warmEng := NewEngine()
	if _, err := warmEng.LoadSessionData(sess.Bytes()); err != nil {
		t.Fatal(err)
	}
	warm := must(warmEng.ReanalyzeContext(bg, prog, lat, nil, hooked))
	warmTime := time.Since(t0)

	if warm.RecomputedProcs != 0 {
		t.Errorf("warm replay recomputed %d procedures", warm.RecomputedProcs)
	}
	if int(warm.ReplayedProcs) != len(prog.Procs) {
		t.Errorf("replayed %d procedures, want all %d", warm.ReplayedProcs, len(prog.Procs))
	}
	if got := c.n["F.1"]; got != 0 {
		t.Errorf("F.1 tasks = %d, want none", got)
	}
	if got := c.n["F.2"]; got != len(prog.Procs) {
		t.Errorf("F.2 items = %d, want one replay per procedure (%d)", got, len(prog.Procs))
	}
	if n := pooled.Load(); n != 0 {
		t.Errorf("the readiness pool ran tasks (%d scheduler events), want none", n)
	}
	if dumpAll(warm) != dumpAll(cold) {
		t.Error("session-warm output differs from the cold run")
	}

	t0 = time.Now()
	must(oneShot(bg, asm.MustParse(b.Source), lat, opts))
	coldTime := time.Since(t0)
	t.Logf("cold=%v session-warm=%v speedup=%.1f×", coldTime, warmTime, float64(coldTime)/float64(warmTime))
}

// TestLoadedSessionRefinesEveryProcedure: snapshots loaded from disk
// carry no F.3 output, so the first Reanalyze after a load refines every
// procedure and equals a from-scratch run. Its own session then serves
// F.3 again: an unchanged second Reanalyze refines nothing and shares
// every *ProcResult with the first.
func TestLoadedSessionRefinesEveryProcedure(t *testing.T) {
	lat := lattice.Default()
	src := corpus.Generate("session", 7, 1500).Source
	opts := DefaultOptions()
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(src), lat, nil, opts))
	var sess bytes.Buffer
	if err := eng.SaveSessionTo(&sess); err != nil {
		t.Fatal(err)
	}
	loaded := NewEngine()
	if _, err := loaded.LoadSessionData(sess.Bytes()); err != nil {
		t.Fatal(err)
	}

	edited := mutateProc(t, src, firstProcName(t, src))
	prog := asm.MustParse(edited)
	var c phaseCounter
	hooked := opts
	hooked.SchedHooks = c.hooks()
	first := must(loaded.ReanalyzeContext(bg, prog, lat, nil, hooked))
	if first.RecomputedProcs == 0 || first.ReplayedProcs == 0 {
		t.Fatalf("recomputed %d, replayed %d: want an edit that replays most of the program",
			first.RecomputedProcs, first.ReplayedProcs)
	}
	if len(c.refined) != len(prog.Procs) {
		t.Errorf("F.3 refined %d procedures after a load, want every one (%d)", len(c.refined), len(prog.Procs))
	}
	if dumpAll(first) != dumpAll(must(oneShot(bg, asm.MustParse(edited), lat, opts))) {
		t.Fatal("first Reanalyze after a load differs from a from-scratch run")
	}

	var c2 phaseCounter
	hooked.SchedHooks = c2.hooks()
	second := must(loaded.ReanalyzeContext(bg, asm.MustParse(edited), lat, nil, hooked))
	if len(c2.refined) != 0 {
		t.Errorf("unchanged Reanalyze refined %d procedures, want none", len(c2.refined))
	}
	for p, pr := range second.Procs {
		if pr != first.Procs[p] {
			t.Errorf("%s: unchanged Reanalyze built a new result", p)
		}
	}
	if dumpAll(second) != dumpAll(first) {
		t.Error("unchanged Reanalyze differs from the previous run")
	}
}
