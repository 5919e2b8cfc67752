package intern

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"retypd/internal/label"
)

// TestIDStability: interning is a pure function of the value — the same
// string, word, or (base, path) pair maps to the same id no matter how
// often, in what order, or through which derivation route it is
// interned.
func TestIDStability(t *testing.T) {
	tb := NewTable()

	// Strings: idempotent, distinct strings get distinct ids, id 0 is "".
	if got := tb.Sym(""); got != 0 {
		t.Fatalf("Sym(\"\") = %d, want 0", got)
	}
	a1, b1 := tb.Sym("alpha"), tb.Sym("beta")
	if a1 == b1 {
		t.Fatal("distinct strings share a Sym")
	}
	for i := 0; i < 100; i++ {
		if tb.Sym("alpha") != a1 || tb.Sym("beta") != b1 {
			t.Fatal("re-interning changed a Sym")
		}
	}
	if tb.StringOf(a1) != "alpha" {
		t.Fatalf("StringOf round-trip broke: %q", tb.StringOf(a1))
	}

	// Words: the trie route (label-by-label) and the batch route agree,
	// and attributes are exact.
	ls := []label.Label{label.In("stack0"), label.Load(), label.Field(32, 4)}
	byAppend := WordRef(0)
	for _, l := range ls {
		byAppend = tb.AppendLabel(byAppend, l)
	}
	if byBatch := tb.Word(ls); byBatch != byAppend {
		t.Fatalf("Word(%v) = %d, append route = %d", ls, byBatch, byAppend)
	}
	if tb.WordLen(byAppend) != 3 {
		t.Fatalf("WordLen = %d, want 3", tb.WordLen(byAppend))
	}
	if want := label.Word(ls).Variance(); tb.WordVariance(byAppend) != want {
		t.Fatalf("WordVariance = %v, want %v", tb.WordVariance(byAppend), want)
	}
	got := tb.WordLabels(byAppend)
	if len(got) != 3 || got[0] != ls[0] || got[1] != ls[1] || got[2] != ls[2] {
		t.Fatalf("WordLabels = %v, want %v", got, ls)
	}

	// DTVs: append route, pair route, and base-substitution route all
	// agree; the table is prefix-closed so Parent is exact.
	d := tb.DTV(a1, 0)
	for _, l := range ls {
		d = tb.DTVAppend(d, l)
	}
	if byPair := tb.DTV(a1, byAppend); byPair != d {
		t.Fatalf("DTV(pair) = %d, append route = %d", byPair, d)
	}
	if bySubst := tb.DTVWithBase(tb.DTV(b1, byAppend), a1); bySubst != d {
		t.Fatalf("DTVWithBase route = %d, want %d", bySubst, d)
	}
	if tb.DTVBase(d) != a1 || tb.DTVWord(d) != byAppend || tb.DTVDepth(d) != 3 {
		t.Fatal("DTV attributes do not match its parts")
	}
	p, last, ok := tb.DTVParent(d)
	if !ok || last != ls[2] || tb.DTVDepth(p) != 2 {
		t.Fatalf("DTVParent = (%d, %v, %v)", p, last, ok)
	}
	if tb.DTVString(d) != "alpha.in_stack0.load.σ32@4" {
		t.Fatalf("DTVString = %q", tb.DTVString(d))
	}
}

// TestIDStabilityRandomized: a randomized mirror check — every interned
// value is recorded with its id in a plain map, then re-interned in a
// shuffled order and compared.
func TestIDStabilityRandomized(t *testing.T) {
	tb := NewTable()
	r := rand.New(rand.NewSource(20160613))
	alphabet := []label.Label{
		label.In("stack0"), label.In("stack4"), label.Out("eax"),
		label.Load(), label.Store(), label.Field(32, 0), label.Field(8, 12),
	}
	type dtv struct {
		base string
		path []label.Label
	}
	var cases []dtv
	ids := map[string]Ref{}
	for i := 0; i < 500; i++ {
		c := dtv{base: fmt.Sprintf("v%d", r.Intn(40))}
		for n := r.Intn(5); n > 0; n-- {
			c.path = append(c.path, alphabet[r.Intn(len(alphabet))])
		}
		cases = append(cases, c)
		id := tb.DTV(tb.Sym(c.base), tb.Word(c.path))
		key := tb.DTVString(id)
		if prev, ok := ids[key]; ok && prev != id {
			t.Fatalf("same rendering %q got two ids: %d, %d", key, prev, id)
		}
		ids[key] = id
	}
	r.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	for _, c := range cases {
		id := tb.DTV(tb.Sym(c.base), tb.Word(c.path))
		if ids[tb.DTVString(id)] != id {
			t.Fatalf("re-interning %q in shuffled order changed its id", tb.DTVString(id))
		}
	}
}

// TestConcurrentInterning hammers one table from many goroutines with
// overlapping values; run under -race (as CI does) this doubles as the
// table's data-race certificate. Every goroutine records the ids it
// observed, and all observations must agree.
func TestConcurrentInterning(t *testing.T) {
	tb := NewTable()
	const workers = 8
	const perWorker = 400
	results := make([]map[string]Ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			out := map[string]Ref{}
			for i := 0; i < perWorker; i++ {
				// Overlapping name space across workers forces races on
				// first-intern of the same value.
				base := tb.Sym(fmt.Sprintf("proc%d", r.Intn(50)))
				d := tb.DTV(base, 0)
				for n := r.Intn(4); n > 0; n-- {
					switch r.Intn(3) {
					case 0:
						d = tb.DTVAppend(d, label.Load())
					case 1:
						d = tb.DTVAppend(d, label.Field(32, 4*r.Intn(4)))
					default:
						d = tb.DTVAppend(d, label.In("stack0"))
					}
				}
				out[tb.DTVString(d)] = d
				// Exercise the read paths concurrently too.
				_, _, _ = tb.DTVParent(d)
				_ = tb.DTVVariance(d)
				_ = tb.WordLabels(tb.DTVWord(d))
			}
			results[w] = out
		}()
	}
	wg.Wait()
	merged := map[string]Ref{}
	for w, out := range results {
		for k, id := range out {
			if prev, ok := merged[k]; ok && prev != id {
				t.Fatalf("worker %d saw %q as id %d, another worker saw %d", w, k, id, prev)
			}
			merged[k] = id
		}
	}
}

// TestSnapshotHoldsEachKeyOnce: across many snapshot rebuilds, every
// interned key lives in exactly one of the snapshot and the maps of
// keys interned since it, and a locked lookup of a key that a rebuild
// moved into the snapshot (the caller's lock-free probe having read
// the older snapshot) finds it there instead of minting a second id.
func TestSnapshotHoldsEachKeyOnce(t *testing.T) {
	tb := NewTable()
	syms := map[string]Sym{}
	for i := 0; i < 5*rebuildFloor; i++ {
		name := fmt.Sprintf("v%d", i)
		syms[name] = tb.Sym(name)
		d := tb.DTVAppend(tb.DTV(syms[name], 0), label.Field(32, 4*(i%8)))
		if i%3 == 0 {
			tb.DTVAppend(d, label.Load())
		}
	}
	tb.mu.Lock()
	snap := tb.read.Load()
	if snap.size() < rebuildFloor {
		t.Fatalf("snapshot holds %d keys: no rebuild happened", snap.size())
	}
	for k := range tb.recent.syms {
		if _, ok := snap.syms[k]; ok {
			t.Fatalf("symbol %q held twice", k)
		}
	}
	for k := range tb.recent.words {
		if _, ok := snap.words[k]; ok {
			t.Fatalf("word %v held twice", k)
		}
	}
	for k := range tb.recent.dtvs {
		if _, ok := snap.dtvs[k]; ok {
			t.Fatalf("derived type variable %v held twice", k)
		}
	}
	nSyms, nWords, nDTVs := tb.Stats()
	if got := len(snap.syms) + len(tb.recent.syms); got != nSyms {
		t.Errorf("maps hold %d symbols, table has %d", got, nSyms)
	}
	// ε is word 0 without a trie key.
	if got := len(snap.words) + len(tb.recent.words); got+1 != nWords {
		t.Errorf("maps hold %d words, table has %d besides ε", got, nWords-1)
	}
	if got := len(snap.dtvs) + len(tb.recent.dtvs); got != nDTVs {
		t.Errorf("maps hold %d derived type variables, table has %d", got, nDTVs)
	}
	tb.mu.Unlock()
	for name, id := range syms {
		if got := tb.symSlow(name); got != id {
			t.Fatalf("locked lookup of %q minted %d, want %d", name, got, id)
		}
	}
}

// BenchmarkLookupMapStringVsInterned compares the two index designs the
// interning refactor trades between: a map keyed by rendered
// derived-type-variable strings (the pre-intern representation, paying
// one String() per probe) against a map keyed by the 4-byte interned
// ref. This is the per-node cost of the constraint graph and
// shape-quotient indices.
func BenchmarkLookupMapStringVsInterned(b *testing.B) {
	tb := NewTable()
	type rendered struct {
		base string
		path label.Word
	}
	var keys []rendered
	var refs []Ref
	for i := 0; i < 512; i++ {
		base := fmt.Sprintf("proc%d!v%d", i%16, i)
		path := label.Word{label.In("stack0"), label.Load(), label.Field(32, 4*(i%8))}
		keys = append(keys, rendered{base: base, path: path})
		refs = append(refs, tb.DTV(tb.Sym(base), tb.Word(path)))
	}

	b.Run("map[string]", func(b *testing.B) {
		idx := map[string]int32{}
		for i, k := range keys {
			idx[k.base+"."+k.path.String()] = int32(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			// Rendering per probe is the point: the old design had no
			// stored key, it built one from (base, path) every time.
			if _, ok := idx[k.base+"."+k.path.String()]; !ok {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("map[Ref]", func(b *testing.B) {
		idx := map[Ref]int32{}
		for i, r := range refs {
			idx[r] = int32(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			r := tb.DTV(tb.Sym(k.base), tb.Word(k.path))
			if _, ok := idx[r]; !ok {
				b.Fatal("missing ref")
			}
		}
	})
	b.Run("map[Ref]/warm-ref", func(b *testing.B) {
		idx := map[Ref]int32{}
		for i, r := range refs {
			idx[r] = int32(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The steady-state probe: the caller already holds the ref
			// (as every post-generation solver phase does).
			if _, ok := idx[refs[i%len(refs)]]; !ok {
				b.Fatal("missing ref")
			}
		}
	})
}
