package solver

import (
	"bytes"
	"crypto/sha256"
	"os"
	"testing"

	"retypd/internal/asm"
	"retypd/internal/fuzzcorpus"
	"retypd/internal/lattice"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus; set
// RETYPD_WRITE_FUZZ_CORPUS=1 after changing the cache encoding.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("RETYPD_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set RETYPD_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	if err := fuzzcorpus.Write("testdata/fuzz/FuzzLoadCache", fuzzCacheSeeds()); err != nil {
		t.Fatal(err)
	}
	if err := fuzzcorpus.Write("testdata/fuzz/FuzzLoadSession", fuzzSessionSeeds()); err != nil {
		t.Fatal(err)
	}
}

// fuzzSessionSeeds mirrors fuzzCacheSeeds for the session file format:
// a valid saved session plus corrupted-header variants.
func fuzzSessionSeeds() [][]byte {
	lat := lattice.Default()
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	var buf bytes.Buffer
	if err := eng.SaveSessionTo(&buf); err != nil {
		panic(err)
	}
	valid := buf.Bytes()
	flip := func(i int, mask byte) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= mask
		return c
	}
	return [][]byte{
		valid,
		flip(0, 0xff),              // magic
		flip(len(sessMagic), 0x01), // format version
		valid[:len(valid)/2],       // truncation
		flip(len(valid)-1, 0x80),   // checksum tail
		flip(len(valid)/2, 0x20),   // interior byte
		nil,
	}
}

// FuzzLoadSession: like FuzzLoadCache, for session files. A clean load
// must round-trip byte-identically (the session wire form is
// canonical), and checksum-resealed mutations must reach the record
// decoders without panicking.
func FuzzLoadSession(f *testing.F) {
	for _, seed := range fuzzSessionSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine()
		if _, err := eng.LoadSessionData(data); err == nil {
			var buf bytes.Buffer
			if err := eng.SaveSessionTo(&buf); err != nil {
				t.Fatalf("save after clean load: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("session round-trip changed the wire bytes (len %d vs %d)",
					buf.Len(), len(data))
			}
		}
		// Checksum-sealed variant: exercises the record decoders.
		sum := sha256.Sum256(data)
		sealed := append(append([]byte(nil), data...), sum[:]...)
		NewEngine().LoadSessionData(sealed)
	})
}

// fuzzCacheSeeds returns a valid saved cache plus corrupted-header
// variants (flipped magic, bumped format version, truncation, flipped
// checksum byte), used both as f.Add seeds and to regenerate the
// checked-in corpus.
func fuzzCacheSeeds() [][]byte {
	lat := lattice.Default()
	eng := NewEngine()
	must(eng.InferContext(bg, asm.MustParse(engineProgSrc), lat, nil, DefaultOptions()))
	var buf bytes.Buffer
	if err := eng.SaveCacheTo(&buf); err != nil {
		panic(err)
	}
	valid := buf.Bytes()
	flip := func(i int, mask byte) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= mask
		return c
	}
	return [][]byte{
		valid,
		flip(0, 0xff),                 // magic
		flip(len(cacheMagic), 0x01),   // format version
		flip(len(cacheMagic)+1, 0x01), // fingerprint version
		valid[:len(valid)/2],          // truncation
		flip(len(valid)-1, 0x80),      // checksum tail
		nil,
	}
}

// FuzzLoadCache: a cache blob from an untrusted file must load or fail
// cleanly — never panic, whatever the header or interior bytes say.
// Because LoadCacheData rejects almost every mutated input at the
// checksum before the interior decoders run, the fuzz function also
// re-seals the input with a correct checksum so mutations reach the
// scheme- and shape-cache wire decoders. Body entry blobs are decoded
// on first hit, not at load, so after every clean load each held blob
// is decoded too: a malformed one must be a miss, never a panic.
func FuzzLoadCache(f *testing.F) {
	for _, seed := range fuzzCacheSeeds() {
		f.Add(seed)
	}
	decodeHeld := func(eng *Engine) {
		for _, c := range eng.bodies.sorted() {
			eng.bodies.resolve(c, defaultConst)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh engine per input: loads merge into live caches, and
		// the fuzz loop must not accumulate state across inputs.
		eng := NewEngine()
		if _, err := eng.LoadCacheData(data); err == nil {
			decodeHeld(eng)
			// A clean load must also round-trip: saving what was loaded
			// must produce a loadable cache again.
			var buf bytes.Buffer
			if err := eng.SaveCacheTo(&buf); err != nil {
				t.Fatalf("save after clean load: %v", err)
			}
			if _, err := NewEngine().LoadCacheData(buf.Bytes()); err != nil {
				t.Fatalf("reload after clean load: %v", err)
			}
		}
		// Checksum-sealed variant: exercises the interior decoders.
		sum := sha256.Sum256(data)
		sealed := append(append([]byte(nil), data...), sum[:]...)
		eng2 := NewEngine()
		if _, err := eng2.LoadCacheData(sealed); err == nil {
			decodeHeld(eng2)
		}
	})
}
