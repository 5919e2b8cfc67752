package solver

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/constraints"
	"retypd/internal/intern"
	"retypd/internal/lattice"
)

// servedRawPrefix numbers the renamed programs of the tests below, so
// every run (including -count repeats in one process) infers names the
// process-wide intern table has never seen.
var servedRawPrefix atomic.Uint64

// freshTwins returns two renamings of dedupProgSrc under prefixes no
// earlier run used: a source program and its twin.
func freshTwins() (src, twin string) {
	n := servedRawPrefix.Add(1)
	return renameDedupProg(fmt.Sprintf("rs%d_", n)), renameDedupProg(fmt.Sprintf("rt%d_", n))
}

// deferredProcs lists, sorted, the procedures of res whose raw
// constraint set has not been translated yet.
func deferredProcs(res *Result) []string {
	var out []string
	for n, pr := range res.Procs {
		if pr.rawDeferred != nil {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestServedRawFirstReadConcurrent: many goroutines making the first
// read of one served member's raw set all get the same set with the
// same rendering — for an in-program member and an entry-served one.
func TestServedRawFirstReadConcurrent(t *testing.T) {
	lat := lattice.Default()
	opts := DefaultOptions()
	opts.Workers = 4
	src, twin := freshTwins()

	local := Infer(asm.MustParse(src), lat, nil, opts)
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(src), lat, nil, opts)
	entry := eng.Infer(asm.MustParse(twin), lat, nil, opts)
	// Each result serves members one way only, so any deferred member
	// of it exercises that path.
	if local.BodyDedupHits == 0 || local.BodyDedupCrossHits != 0 {
		t.Fatalf("one-shot run: in-program hits %d, entry hits %d; want >0, 0",
			local.BodyDedupHits, local.BodyDedupCrossHits)
	}
	if entry.BodyDedupCrossHits == 0 || entry.BodyDedupHits != 0 {
		t.Fatalf("twin run: entry hits %d, in-program hits %d; want >0, 0",
			entry.BodyDedupCrossHits, entry.BodyDedupHits)
	}

	for _, tc := range []struct {
		name string
		res  *Result
	}{
		{"in-program", local},
		{"entry", entry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The wrappers are the served members with nonempty raw
			// sets (a leaf without a frame generates none).
			var p string
			for _, n := range deferredProcs(tc.res) {
				if strings.Contains(n, "wrap_") {
					p = n
					break
				}
			}
			if p == "" {
				t.Fatal("no wrapper holds a deferred raw set")
			}
			pr := tc.res.Procs[p]
			const readers = 16
			sets := make([]*constraints.Set, readers)
			texts := make([]string, readers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					sets[i] = pr.Constraints()
					texts[i] = sets[i].String()
				}(i)
			}
			close(start)
			wg.Wait()
			if sets[0] == nil || sets[0].Len() == 0 {
				t.Fatalf("%s: empty raw set", p)
			}
			for i := 1; i < readers; i++ {
				if sets[i] != sets[0] || texts[i] != texts[0] {
					t.Fatalf("%s: reader %d got a different set", p, i)
				}
			}
		})
	}
}

// TestServedRawInternsOnFirstReadOnly: serving a renamed twin through
// a warm engine leaves its members' local names out of the intern
// table; the first read of their raw sets mints them, a second read
// mints nothing.
func TestServedRawInternsOnFirstReadOnly(t *testing.T) {
	lat := lattice.Default()
	opts := DefaultOptions()
	opts.Workers = 1
	src, twin := freshTwins()
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(src), lat, nil, opts)
	res := eng.Infer(asm.MustParse(twin), lat, nil, opts)
	served := deferredProcs(res)
	if len(served) == 0 {
		t.Fatal("no member holds a deferred raw set")
	}

	readAll := func() int {
		before, _, _ := intern.GlobalStats()
		for _, p := range served {
			res.Procs[p].Constraints()
		}
		after, _, _ := intern.GlobalStats()
		return after - before
	}
	if n := readAll(); n <= 0 {
		t.Errorf("first read of %d served raw sets minted %d syms; want > 0", len(served), n)
	}
	if n := readAll(); n != 0 {
		t.Errorf("second read of %d served raw sets minted %d syms; want 0", len(served), n)
	}
}

// TestServedRawSessionBytes: a session's wire bytes do not depend on
// whether its served members' raw sets were read before saving, and
// equal those of a run that generated every raw set itself.
func TestServedRawSessionBytes(t *testing.T) {
	lat := lattice.Default()
	opts := DefaultOptions()
	src, twin := freshTwins()
	save := func(readFirst bool) []byte {
		eng := NewEngine(0, 0)
		eng.Infer(asm.MustParse(src), lat, nil, opts)
		res := eng.Infer(asm.MustParse(twin), lat, nil, opts)
		if len(deferredProcs(res)) == 0 {
			t.Fatal("no member holds a deferred raw set")
		}
		if readFirst {
			for _, pr := range res.Procs {
				pr.Constraints()
			}
		}
		var buf bytes.Buffer
		if err := eng.SaveSessionTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	unread, read := save(false), save(true)
	if !bytes.Equal(unread, read) {
		t.Fatalf("session bytes depend on reading raw sets first (len %d vs %d)", len(unread), len(read))
	}

	noDedup := opts
	noDedup.NoBodyDedup = true
	eng := NewEngine(0, 0)
	eng.Infer(asm.MustParse(twin), lat, nil, noDedup)
	var full bytes.Buffer
	if err := eng.SaveSessionTo(&full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unread, full.Bytes()) {
		t.Fatalf("session of served members differs from one with generated raw sets (len %d vs %d)",
			len(unread), full.Len())
	}
}
