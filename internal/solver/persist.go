package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"retypd/internal/pgraph"
)

// Cache persistence: Engine.SaveCache writes the engine's scheme and
// shape memos to a versioned, checksummed file; LoadCache reads one
// back into a fresh engine in any process. Entries survive the trip
// because everything in them is canonical bytes — fingerprint digests
// computed over portable content, constraint sets and sketches encoded
// by rendered names and label wire forms (see the wire files of
// pgraph, sketch, constraints, intern and label).
//
// File layout:
//
//	magic ++ uvarint(cacheFormatVersion) ++ byte(pgraph.FPVersion)
//	++ scheme section (pgraph.SimplifyCache.AppendWire)
//	++ shape section (sketch.ShapeCache.AppendWire)
//	++ body section (bodyCache.appendWire):
//	     uvarint(nextID) ++ uvarint(class count)
//	     per class, ascending id:
//	       uvarint(id) ++ fingerprint wire (bodyfp.FP.AppendWire)
//	       ++ byte(hasEntry) [++ uvarint(len) ++ entry blob]
//	     entry blob: rep name ++ publisher fingerprint wire
//	       ++ scheme wire ++ sketch wire
//	       ++ uvarint(call count) ++ namedProc bytes
//	       ++ uvarint(obs count) per obs (uvarint(inst) ++ loc ++ sketch wire)
//	++ sha256 of everything preceding (32 bytes)
//
// Version-bump rules (the wire-format invariant): any change to what a
// memo key or value encodes must be reflected either in FPVersion
// (content hashed into fingerprints — it already invalidates the keys
// themselves), in bodyfp's encVersion (body fingerprints prefix their
// own version, so stale classes can simply never be hit), or in
// cacheFormatVersion (entry/value layout). A loader refuses files whose
// versions differ from its own; there is no migration path, by design —
// a stale cache is merely cold, never wrong. The trailing checksum
// rejects truncated or corrupted files before any entry is decoded.
//
// Body classes persist WITH their table-scoped ids: caller fingerprints
// filed in the same table embed callee class ids in their canonical
// encodings, so the id assignment is part of the table's content. For
// the same reason the body section only installs into an engine whose
// body table has never filed a class (LoadCache's fresh engine; a
// warmed engine refuses it) — merging two tables would renumber one
// side's ids and silently corrupt every embedded CalleeClass reference.
// Entry blobs are length-prefixed so a load can keep them whole: the
// loader decodes only class ids and fingerprints (membership needs
// them) and holds each entry blob, as a slice of the loaded bytes, until
// its class is first hit. SaveCacheTo writes held blobs back verbatim,
// so a restart costs the entries it serves, not the ones it carries.
// A blob that fails to decode on its first hit (corrupt content under
// a valid checksum, or sketches naming a lattice this process never
// built) is a miss, and it is dropped rather than saved again.

// cacheMagic identifies a retypd cache file.
const cacheMagic = "retypd-cache\x00"

// cacheFormatVersion versions the file layout and every embedded wire
// encoding. Bump on any encoding change that FPVersion does not
// already capture. v2 added the body-class section; v3 dropped the raw
// constraint set from body entries.
const cacheFormatVersion = 3

// CacheLoadStats reports what a LoadCache call decoded.
type CacheLoadStats struct {
	// SchemeEntries and ShapeEntries count loaded memo entries.
	SchemeEntries, ShapeEntries int
	// SkippedShapeEntries counts shape entries dropped because their
	// lattice has not been built in this process (harmless: they could
	// never be hit here either).
	SkippedShapeEntries int
	// BodyClasses counts loaded body-dedup classes; BodyEntries counts
	// the entry blobs they carry. Blobs are decoded on their class's
	// first hit, not at load, so a blob counted here may still turn out
	// unusable (a miss, never an error).
	BodyClasses, BodyEntries int
}

// envelope is the frame the cache file and the session file share:
// magic ++ uvarint(version) ++ payload ++ sha256 of everything
// preceding (32 bytes). what names the file in error messages.
type envelope struct {
	magic, what string
	version     uint64
}

var (
	cacheEnvelope   = envelope{cacheMagic, "cache", cacheFormatVersion}
	sessionEnvelope = envelope{sessMagic, "session", sessionFormatVersion}
)

// begin returns a buffer holding the envelope's magic and version, for
// the payload to be appended to.
func (ev envelope) begin() []byte {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, ev.magic...)
	return binary.AppendUvarint(buf, ev.version)
}

// seal appends buf's checksum and writes the whole file to w.
func (ev envelope) seal(w io.Writer, buf []byte) error {
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	_, err := w.Write(buf)
	return err
}

// open verifies data's length, checksum, magic and version before any
// payload byte is decoded. It returns the checksummed bytes and the
// offset at which the payload starts in them.
func (ev envelope) open(data []byte) (body []byte, n int, err error) {
	if len(data) < len(ev.magic)+sha256.Size {
		return nil, 0, fmt.Errorf("solver: %s file too short", ev.what)
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(tail) {
		return nil, 0, fmt.Errorf("solver: %s file checksum mismatch (truncated or corrupted)", ev.what)
	}
	if string(body[:len(ev.magic)]) != ev.magic {
		return nil, 0, fmt.Errorf("solver: not a retypd %s file", ev.what)
	}
	n = len(ev.magic)
	ver, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, 0, fmt.Errorf("solver: truncated %s format version", ev.what)
	}
	if ver != ev.version {
		return nil, 0, fmt.Errorf("solver: %s format version %d (this build reads %d)", ev.what, ver, ev.version)
	}
	return body, n + m, nil
}

// save writes a file atomically: write fills a temp file in path's
// directory, which is then renamed over path.
func (ev envelope) save(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dirOf(path), "."+strings.TrimSuffix(ev.magic, "\x00")+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}

// SaveCacheTo writes the engine's cache stack to w.
func (e *Engine) SaveCacheTo(w io.Writer) error {
	buf := cacheEnvelope.begin()
	buf = append(buf, pgraph.FPVersion)
	buf = e.schemes.AppendWire(buf)
	buf = e.shapes.AppendWire(buf)
	buf = e.bodies.appendWire(buf)
	return cacheEnvelope.seal(w, buf)
}

// SaveCache writes the engine's cache stack to path (atomically: a
// temp file in the same directory is renamed over the target).
func (e *Engine) SaveCache(path string) error { return cacheEnvelope.save(path, e.SaveCacheTo) }

// LoadCacheData decodes a cache blob produced by SaveCacheTo into e's
// caches (merging with whatever the scheme and shape memos already
// hold; recency of loaded entries is preserved). It verifies the
// checksum and versions before decoding a single entry, and refuses an
// engine whose body-class table has already filed a class before
// touching any cache.
//
// LoadCacheData keeps data: the body section's entry blobs stay slices
// of it, decoded when first hit and written back verbatim by
// SaveCacheTo, for as long as the engine lives. The caller must pass
// bytes it owns and never modify them afterwards (a freshly read file,
// or a buffer that is not reused).
func (e *Engine) LoadCacheData(data []byte) (CacheLoadStats, error) {
	var st CacheLoadStats
	// The body section can only load into a table that never filed a
	// class (bodyCache.loadWire); refuse before merging any section, so
	// a refused load leaves every cache as it was.
	if !e.bodies.empty() {
		return st, fmt.Errorf("solver: body-class section can only load into an empty table")
	}
	body, n, err := cacheEnvelope.open(data)
	if err != nil {
		return st, err
	}
	if n >= len(body) || body[n] != pgraph.FPVersion {
		return st, fmt.Errorf("solver: cache fingerprint version mismatch (this build computes v%d)", pgraph.FPVersion)
	}
	n++
	m, loaded, err := e.schemes.LoadWire(body[n:])
	if err != nil {
		return st, err
	}
	st.SchemeEntries = loaded
	n += m
	m, loaded, skipped, err := e.shapes.LoadWire(body[n:])
	if err != nil {
		return st, err
	}
	st.ShapeEntries, st.SkippedShapeEntries = loaded, skipped
	n += m
	m, classes, bodyEntries, err := e.bodies.loadWire(body[n:])
	if err != nil {
		return st, err
	}
	st.BodyClasses, st.BodyEntries = classes, bodyEntries
	n += m
	if n != len(body) {
		return st, fmt.Errorf("solver: %d trailing bytes after cache sections", len(body)-n)
	}
	return st, nil
}

// LoadCache reads a cache file into a fresh engine. The engine keeps
// the file's bytes (see LoadCacheData).
func LoadCache(path string) (*Engine, CacheLoadStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, CacheLoadStats{}, err
	}
	e := NewEngine()
	st, err := e.LoadCacheData(data)
	if err != nil {
		return nil, st, err
	}
	return e, st, nil
}
