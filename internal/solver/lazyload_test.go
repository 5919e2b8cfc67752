package solver

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/constraints"
	"retypd/internal/corpus"
	"retypd/internal/intern"
	"retypd/internal/lattice"
)

// Tests of first-hit decoding of body-class entries: a loaded cache
// keeps each entry blob undecoded until its class is hit, and writes
// every blob it still holds back verbatim.

// saveBytes returns e's cache file bytes.
func saveBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveCacheTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadBytes loads data into a fresh engine, failing the test on error.
func loadBytes(t *testing.T, data []byte) *Engine {
	t.Helper()
	e := NewEngine()
	if _, err := e.LoadCacheData(data); err != nil {
		t.Fatalf("load: %v", err)
	}
	return e
}

// heldBlobs returns, in id order, the classes of e's body table that
// hold an entry blob, each with its blob and current entry.
func heldBlobs(e *Engine) (classes []*bodyClass, blobs [][]byte, entries []*bodyEntry) {
	for _, c := range e.bodies.sorted() {
		e.bodies.mu.Lock()
		blob, entry := c.blob, c.entry
		e.bodies.mu.Unlock()
		if blob != nil {
			classes = append(classes, c)
			blobs = append(blobs, blob)
			entries = append(entries, entry)
		}
	}
	return classes, blobs, entries
}

// defaultConst reports whether y names a constant of the default
// lattice: the closure check a run under it applies to a decoded entry.
func defaultConst(y intern.Sym) bool {
	_, ok := lattice.Default().ElemSym(y)
	return ok
}

// reseal rewrites data's trailing checksum over its current content.
func reseal(data []byte) {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	copy(data[len(body):], sum[:])
}

// fleetCacheBytes analyzes n fleet binaries (size instructions each,
// half a renamed shared library) on one engine and returns its cache
// file bytes and the programs' sources.
func fleetCacheBytes(t *testing.T, n, size int) ([]byte, []string) {
	t.Helper()
	lat := lattice.Default()
	eng := NewEngine()
	var srcs []string
	for _, b := range corpus.GenerateFleet("lazyfleet", 7, size, n, 0.5) {
		must(eng.InferContext(bg, asm.MustParse(b.Source), lat, nil, DefaultOptions()))
		srcs = append(srcs, b.Source)
	}
	return saveBytes(t, eng), srcs
}

// TestLoadCacheDecodesEntriesOnFirstHit: a load decodes no entry blob,
// and a run decodes only the blobs of the classes it hits.
func TestLoadCacheDecodesEntriesOnFirstHit(t *testing.T) {
	data, srcs := fleetCacheBytes(t, 4, 600)
	eng := NewEngine()
	st, err := eng.LoadCacheData(data)
	if err != nil {
		t.Fatal(err)
	}
	_, blobs, entries := heldBlobs(eng)
	if len(blobs) == 0 || st.BodyEntries != len(blobs) {
		t.Fatalf("load reports %d entries, table holds %d blobs", st.BodyEntries, len(blobs))
	}
	for i, e := range entries {
		if e != nil {
			t.Fatalf("blob %d decoded at load", i)
		}
	}

	res := must(eng.InferContext(bg, asm.MustParse(srcs[0]), lattice.Default(), nil, DefaultOptions()))
	if res.BodyDedupCrossHits == 0 {
		t.Fatal("re-running a cached binary served nothing from the loaded table")
	}
	_, after, entries := heldBlobs(eng)
	if len(after) != len(blobs) {
		t.Fatalf("%d of %d valid blobs dropped by a run", len(blobs)-len(after), len(blobs))
	}
	decoded := 0
	for _, e := range entries {
		if e != nil {
			decoded++
		}
	}
	if decoded == 0 || decoded == len(blobs) {
		t.Errorf("one binary of four decoded %d of %d entry blobs; want some, not all", decoded, len(blobs))
	}
}

// entryParts returns the byte range of each part of an entry blob:
// the publisher's fingerprint, its scheme, its sketch, and its
// callsite observations.
func entryParts(t *testing.T, blob []byte) map[string][2]int {
	t.Helper()
	e, err := decodeEntryWire(blob)
	if err != nil {
		t.Fatal(err)
	}
	fpAt := len(appendCacheString(nil, e.rep))
	schemeAt := fpAt + len(e.fp.AppendWire(nil))
	skAt := schemeAt + len(constraints.AppendSchemeWire(nil, e.scheme))
	callsAt := skAt + len(e.sk.AppendWire(nil))
	obsAt := callsAt + len(binary.AppendUvarint(nil, uint64(len(e.namedProc)))) + len(e.namedProc)
	return map[string][2]int{
		"fingerprint":  {fpAt, schemeAt},
		"scheme":       {schemeAt, skAt},
		"sketch":       {skAt, callsAt},
		"observations": {obsAt, len(blob)},
	}
}

// flipToFail flips one byte of blob[lo:hi], at the first position (from
// a start that varies with i) where the blob stops decoding, and
// reports whether it found one; otherwise blob is left unchanged.
func flipToFail(blob []byte, i, lo, hi int) bool {
	for k := 0; k < hi-lo; k++ {
		p := lo + (i*7919+k*31)%(hi-lo)
		blob[p] ^= 0x5a
		if _, err := decodeEntryWire(blob); err != nil {
			return true
		}
		blob[p] ^= 0x5a
	}
	return false
}

// TestLoadCacheCorruptEntryIsMiss: entry blobs corrupted under a valid
// checksum load cleanly; each is a miss at first hit (its members run
// the full path and republish), the output equals a cold run byte for
// byte, and no failing blob is saved again — whichever part of the
// blob the corruption hits.
func TestLoadCacheCorruptEntryIsMiss(t *testing.T) {
	lat := lattice.Default()
	prog := corpus.Generate("lazycorrupt", 23, 1500).Source
	eng0 := NewEngine()
	must(eng0.InferContext(bg, asm.MustParse(prog), lat, nil, DefaultOptions()))
	data := saveBytes(t, eng0)
	want := dumpAll(must(oneShot(bg, asm.MustParse(prog), lat, DefaultOptions())))

	// Each corruption reports whether it found a change that makes the
	// blob fail to decode; part corruptions touch only that part.
	corruptions := map[string]func(t *testing.T, blob []byte, i int) bool{
		// Every byte 0xff: the leading name-length uvarint never ends.
		"fill": func(_ *testing.T, blob []byte, _ int) bool {
			for j := range blob {
				blob[j] = 0xff
			}
			return true
		},
		"flip": func(_ *testing.T, blob []byte, i int) bool {
			return flipToFail(blob, i, 0, len(blob))
		},
	}
	for _, part := range []string{"fingerprint", "scheme", "sketch", "observations"} {
		corruptions[part] = func(t *testing.T, blob []byte, i int) bool {
			r := entryParts(t, blob)[part]
			return flipToFail(blob, i, r[0], r[1])
		}
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			bad := bytes.Clone(data)
			// The loaded blobs alias bad, so corrupting them in place
			// corrupts the file; every other blob stays intact. A part
			// corruption skips blobs where no flip of that part fails
			// (say, an empty observation list whose count byte decodes
			// either way) and takes the next one.
			_, blobs, _ := heldBlobs(loadBytes(t, bad))
			corrupted := 0
			for i, b := range blobs {
				if corrupted*2 > i {
					continue
				}
				if !corrupt(t, b, i) {
					if name == "fill" || name == "flip" {
						t.Fatalf("blob %d: found no corruption that fails to decode", i)
					}
					continue
				}
				if _, err := decodeEntryWire(b); err == nil {
					t.Fatalf("blob %d still decodes after corruption", i)
				}
				corrupted++
			}
			if corrupted == 0 {
				t.Fatalf("no blob could be corrupted in its %s", name)
			}
			reseal(bad)

			eng := NewEngine()
			st, err := eng.LoadCacheData(bad)
			if err != nil {
				t.Fatalf("re-sealed cache with corrupt entries refused: %v", err)
			}
			if st.BodyEntries != len(blobs) {
				t.Fatalf("load carried %d entries, want %d", st.BodyEntries, len(blobs))
			}
			res := must(eng.InferContext(bg, asm.MustParse(prog), lat, nil, DefaultOptions()))
			if got := dumpAll(res); got != want {
				t.Fatal("output with corrupt entries differs from a cold run")
			}
			if res.BodyDedupCrossHits == 0 {
				t.Error("intact entries served nothing")
			}

			// Saved again, the table holds only decodable blobs: the
			// corrupt ones were dropped and their classes republished.
			_, saved, _ := heldBlobs(loadBytes(t, saveBytes(t, eng)))
			for i, b := range saved {
				if _, err := decodeEntryWire(b); err != nil {
					t.Fatalf("saved blob %d does not decode: %v", i, err)
				}
			}
			if len(saved) != len(blobs) {
				t.Errorf("saved %d entries, want %d (%d corrupt ones republished)", len(saved), len(blobs), corrupted)
			}
		})
	}
}

// TestLoadCacheUnclosedEntryIsMiss: a body entry whose scheme names a
// variable beyond its root, its existentials and lattice constants —
// here another procedure of the program — decodes, but is a miss at
// first hit: its members run the full path and republish, the output
// equals a cold run byte for byte, and the unclosed blob is not saved
// again. Served by rerooting, the foreign variable would reach the
// member's scheme.
func TestLoadCacheUnclosedEntryIsMiss(t *testing.T) {
	lat := lattice.Default()
	prog := corpus.Generate("lazyunclosed", 23, 1500).Source
	eng0 := NewEngine()
	must(eng0.InferContext(bg, asm.MustParse(prog), lat, nil, DefaultOptions()))
	want := dumpAll(must(oneShot(bg, asm.MustParse(prog), lat, DefaultOptions())))

	// Every other carried entry gets a constraint on a foreign procedure
	// variable, re-encoded; a loaded table saves its blobs verbatim.
	tamper := loadBytes(t, saveBytes(t, eng0))
	classes, blobs, _ := heldBlobs(tamper)
	if len(classes) < 2 {
		t.Fatalf("cache carries %d body entries, want at least 2", len(classes))
	}
	entries := make([]*bodyEntry, len(blobs))
	for i, b := range blobs {
		e, err := decodeEntryWire(b)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		entries[i] = e
	}
	tampered := 0
	for i := 0; i < len(classes); i += 2 {
		e := entries[i]
		// The next entry's publisher: a procedure other than e's own.
		foreign := constraints.BaseDTV(constraints.Var(entries[(i+1)%len(entries)].rep))
		cs := e.scheme.Constraints.Clone()
		cs.AddSub(foreign, constraints.BaseDTV(e.scheme.Root))
		e.scheme = &constraints.Scheme{Root: e.scheme.Root, Constraints: cs, Existential: e.scheme.Existential}
		classes[i].blob = appendEntryWire(nil, e)
		tampered++
	}
	bad := saveBytes(t, tamper)

	eng := loadBytes(t, bad)
	res := must(eng.InferContext(bg, asm.MustParse(prog), lat, nil, DefaultOptions()))
	if got := dumpAll(res); got != want {
		t.Fatal("output with unclosed entries differs from a cold run")
	}
	if res.BodyDedupCrossHits == 0 {
		t.Error("intact entries served nothing")
	}
	_, saved, _ := heldBlobs(loadBytes(t, saveBytes(t, eng)))
	for i, b := range saved {
		e, err := decodeEntryWire(b)
		if err != nil {
			t.Fatalf("saved blob %d does not decode: %v", i, err)
		}
		if !constraints.Closed(e.scheme.Constraints, e.scheme.Root, e.scheme.Existential, defaultConst) {
			t.Fatalf("saved blob %d carries an unclosed scheme", i)
		}
	}
	if len(saved) != len(blobs) {
		t.Errorf("saved %d entries, want %d (%d unclosed ones republished)", len(saved), len(blobs), tampered)
	}
}

// TestSaveCacheWritesCarriedBlobsVerbatim: every entry's wire form is
// canonical (re-encoding a decoded blob gives the blob), and a loaded
// cache saves back byte-identically whether none, some or all of its
// entries were decoded first.
func TestSaveCacheWritesCarriedBlobsVerbatim(t *testing.T) {
	data, _ := fleetCacheBytes(t, 12, 500)
	_, blobs, _ := heldBlobs(loadBytes(t, data))
	if len(blobs) == 0 {
		t.Fatal("fleet cache carries no body entries")
	}
	for i, b := range blobs {
		e, err := decodeEntryWire(b)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if re := appendEntryWire(nil, e); !bytes.Equal(re, b) {
			t.Fatalf("blob %d: re-encoding its decoded entry changes it (len %d vs %d)", i, len(re), len(b))
		}
	}
	for _, hit := range []struct {
		name  string
		every int // decode every n-th held blob (0: none)
	}{{"none", 0}, {"some", 3}, {"all", 1}} {
		eng := loadBytes(t, data)
		classes, _, _ := heldBlobs(eng)
		for i, c := range classes {
			if hit.every > 0 && i%hit.every == 0 {
				if eng.bodies.resolve(c, defaultConst) == nil {
					t.Fatalf("%s: blob %d failed to decode", hit.name, i)
				}
			}
		}
		if got := saveBytes(t, eng); !bytes.Equal(got, data) {
			t.Errorf("%s decoded: save changed the file (len %d vs %d)", hit.name, len(got), len(data))
		}
	}
}

// TestLoadedEntriesServeRenamedTwin: a renamed twin of a cached
// program is served from the loaded entries, a second run of it too,
// and both equal a cold run.
func TestLoadedEntriesServeRenamedTwin(t *testing.T) {
	lat := lattice.Default()
	src := corpus.GenerateWithPrefix("lazyraw", "", 43, 1000).Source
	twin := corpus.GenerateWithPrefix("lazyraw", "tw_", 43, 1000).Source
	eng0 := NewEngine()
	must(eng0.InferContext(bg, asm.MustParse(src), lat, nil, DefaultOptions()))
	eng := loadBytes(t, saveBytes(t, eng0))
	want := dumpAll(must(oneShot(bg, asm.MustParse(twin), lat, DefaultOptions())))
	for run := range 2 {
		res := must(eng.InferContext(bg, asm.MustParse(twin), lat, nil, DefaultOptions()))
		if res.BodyDedupCrossHits == 0 {
			t.Fatalf("run %d served nothing from the loaded entries", run)
		}
		if dumpAll(res) != want {
			t.Errorf("run %d: output differs from a cold run", run)
		}
	}
}

// TestLoadedEntriesConcurrentServeAndSave: two concurrent runs of
// renamed twins of a cached program, on one loaded engine, race to
// decode the same entries while a third goroutine saves the cache.
// Both outputs equal cold runs and the saved cache loads. Meant for
// -race.
func TestLoadedEntriesConcurrentServeAndSave(t *testing.T) {
	lat := lattice.Default()
	opts := DefaultOptions()
	opts.Workers = 2
	src := corpus.GenerateWithPrefix("lazyrace", "", 41, 1000).Source
	twins := []string{
		corpus.GenerateWithPrefix("lazyrace", "ta_", 41, 1000).Source,
		corpus.GenerateWithPrefix("lazyrace", "tb_", 41, 1000).Source,
	}
	eng0 := NewEngine()
	must(eng0.InferContext(bg, asm.MustParse(src), lat, nil, opts))
	data := saveBytes(t, eng0)

	eng := loadBytes(t, data)
	outs := make([]*Result, len(twins))
	var saved [][]byte
	var wg sync.WaitGroup
	for i, tw := range twins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = must(eng.InferContext(bg, asm.MustParse(tw), lat, nil, opts))
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 3 {
			var buf bytes.Buffer
			if err := eng.SaveCacheTo(&buf); err != nil {
				t.Error(err)
				return
			}
			saved = append(saved, buf.Bytes())
		}
	}()
	wg.Wait()
	<-done

	for i, tw := range twins {
		if outs[i].BodyDedupCrossHits == 0 {
			t.Errorf("twin %d served nothing from the loaded entries", i)
		}
		if dumpAll(outs[i]) != dumpAll(must(oneShot(bg, asm.MustParse(tw), lat, opts))) {
			t.Errorf("twin %d: output differs from a cold run", i)
		}
	}
	for _, b := range saved {
		loadBytes(t, b)
	}
}
