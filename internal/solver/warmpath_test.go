package solver

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/cfg"
	"retypd/internal/conc"
	"retypd/internal/corpus"
	"retypd/internal/lattice"
	"retypd/internal/sketch"
	"retypd/internal/summaries"
)

// phaseCounter counts SchedHooks.BeforeTask calls per phase.
type phaseCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *phaseCounter) hooks() *conc.SchedHooks {
	c.n = map[string]int{}
	return &conc.SchedHooks{BeforeTask: func(phase, _ string) {
		c.mu.Lock()
		c.n[phase]++
		c.mu.Unlock()
	}}
}

// ancestorSCCs returns the SCCs of cg that contain proc or can reach it
// over call edges, and the number of procedures in them.
func ancestorSCCs(cg *cfg.CallGraph, proc string) (sccs, procs int) {
	dirty := map[string]bool{proc: true}
	for _, scc := range cg.SCCs { // bottom-up: callees first
		d := false
		for _, p := range scc {
			if dirty[p] {
				d = true
			}
			for _, c := range cg.Callees[p] {
				if dirty[c] {
					d = true
				}
			}
		}
		if d {
			sccs++
			procs += len(scc)
			for _, p := range scc {
				dirty[p] = true
			}
		}
	}
	return sccs, procs
}

// TestReanalyzeSchedulesOnlyDirtySCCs: Reanalyze runs one F.1 task per
// dirty SCC and none for clean ones, while every procedure still passes
// through exactly one guarded F.2 item (a solve or a replay); the output
// equals a from-scratch run.
func TestReanalyzeSchedulesOnlyDirtySCCs(t *testing.T) {
	lat := lattice.Default()
	src := corpus.Generate("warm-sched", 5, 600).Source
	edit := firstProcName(t, src)
	edited := mutateProc(t, src, edit)
	for _, tc := range []struct {
		name      string
		src       string
		wantSCCs  int
		wantProcs int
	}{
		{name: "unchanged", src: src},
		{name: "edited", src: edited},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := asm.MustParse(tc.src)
			if tc.src != src {
				tc.wantSCCs, tc.wantProcs = ancestorSCCs(cfg.BuildCallGraph(prog), edit)
			}
			eng := NewEngine(0, 0)
			eng.Infer(asm.MustParse(src), lat, nil, DefaultOptions())
			var c phaseCounter
			opts := DefaultOptions()
			opts.SchedHooks = c.hooks()
			res := eng.Reanalyze(prog, lat, nil, opts)

			if int(res.RecomputedProcs) != tc.wantProcs {
				t.Errorf("recomputed %d procedures, want %d", res.RecomputedProcs, tc.wantProcs)
			}
			if got := c.n["F.1"]; got != tc.wantSCCs {
				t.Errorf("F.1 tasks = %d, want one per dirty SCC (%d)", got, tc.wantSCCs)
			}
			if got := c.n["F.2"]; got != len(prog.Procs) {
				t.Errorf("F.2 items = %d, want one per procedure (%d)", got, len(prog.Procs))
			}
			if dumpAll(res) != dumpAll(Infer(asm.MustParse(tc.src), lat, nil, DefaultOptions())) {
				t.Error("Reanalyze output differs from a from-scratch run")
			}
		})
	}
}

// TestLoadSessionSharesSketches: byte-identical sketch blobs of one
// decode stripe load as one sealed sketch, and the loaded session still
// re-saves byte for byte.
func TestLoadSessionSharesSketches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one stripe
	lat := lattice.Default()
	opts := DefaultOptions()
	opts.KeepIntermediates = false
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(corpus.Generate("session", 7, 1500).Source), lat, nil, opts)
	var saved bytes.Buffer
	if err := eng.SaveSessionTo(&saved); err != nil {
		t.Fatal(err)
	}
	loaded := NewEngine(0, 0)
	if _, err := loaded.LoadSessionData(saved.Bytes()); err != nil {
		t.Fatal(err)
	}

	byBlob := map[string]map[*sketch.Sketch]bool{}
	blobs := 0
	note := func(sk *sketch.Sketch) {
		if !sk.Sealed() {
			t.Fatal("loaded sketch is not sealed")
		}
		key := string(sk.AppendWire(nil))
		if byBlob[key] == nil {
			byBlob[key] = map[*sketch.Sketch]bool{}
		}
		byBlob[key][sk] = true
		blobs++
	}
	for _, snap := range loaded.sess.procs {
		if snap.pr.Sketch != nil {
			note(snap.pr.Sketch)
		}
		for _, o := range snap.obs {
			note(o.sk)
		}
	}
	if len(byBlob) == blobs {
		t.Fatal("no repeated sketch blob in the session; the test exercises nothing")
	}
	for _, ptrs := range byBlob {
		if len(ptrs) != 1 {
			t.Fatalf("one sketch blob decoded to %d distinct sketches", len(ptrs))
		}
	}
	var resaved bytes.Buffer
	if err := loaded.SaveSessionTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Error("session with shared sketches re-saves differently")
	}
}

// TestSessionSumsDigestStockTable: a nil table digests as the stock
// table does, whether or not the stock table is passed by name, and a
// different table does not.
func TestSessionSumsDigestStockTable(t *testing.T) {
	def := summaries.Default()
	want := sumsDigest(def)
	if got := sessionSumsDigest(nil); got != want {
		t.Errorf("nil table digests to %s, want the stock table's %s", got, want)
	}
	if got := sessionSumsDigest(def); got != want {
		t.Errorf("stock table digests to %s, want %s", got, want)
	}
	cp := summaries.Table{}
	for k, v := range def {
		cp[k] = v
	}
	delete(cp, "malloc")
	if sessionSumsDigest(cp) == want {
		t.Error("a table without malloc digests like the stock table")
	}
}
