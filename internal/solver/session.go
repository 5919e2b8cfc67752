package solver

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"retypd/internal/bodyfp"
	"retypd/internal/conc"
	"retypd/internal/constraints"
	"retypd/internal/sketch"
)

// Session persistence: Engine.SaveSession writes the engine's recorded
// session — the per-procedure snapshots Reanalyze diffs against — to a
// versioned, checksummed file, and LoadSession reads one back into a
// fresh process. A process that loads both the cache file and the
// session file of a finished predecessor goes straight to Reanalyze
// with zero warm-up: every procedure the edit did not touch replays
// from the session without the pipeline running at all.
//
// File layout:
//
//	magic ++ uvarint(sessionFormatVersion)
//	++ lattice signature ++ byte(option bits) ++ varint(MaxSketchDepth)
//	++ summaries digest (sumsDigest)
//	++ uvarint(procedure count); per procedure, ascending name:
//	     uvarint(record length) ++ record, where record is
//	     name ++ fingerprint wire (bodyfp.FP.AppendWire)
//	     ++ scheme wire ++ byte(hasSketch) [++ uvarint(len) ++ sketch wire]
//	     ++ uvarint(obs count) per obs
//	          (callee ++ loc ++ uvarint(inst) ++ uvarint(len) ++ sketch wire)
//	     ++ SCC membership key
//	++ sha256 of everything preceding (32 bytes)
//
// The per-procedure length prefix exists so a loader can find record
// boundaries without parsing record contents: LoadSessionData scans
// boundaries sequentially, then decodes the records on all cores. That
// matters because session load sits on the zero-warm-up critical path —
// a restarted service pays it before the first Reanalyze.
//
// What a loaded session does NOT carry: the per-procedure CFG analyses
// (cfg.ProcInfo holds program-relative state that is cheap to recompute
// and expensive to make portable) — the first Reanalyze after a load
// re-analyzes every procedure's CFG but replays everything else — and
// the summaries table itself (only its digest travels; compatibility is
// always a digest compare). Strings are uvarint-length-prefixed; the
// same version-bump rules as the cache file apply (persist.go), with
// sessionFormatVersion guarding this layout and the embedded wire
// encodings.

// sessMagic identifies a retypd session file.
const sessMagic = "retypd-sess\x00"

// sessionFormatVersion versions the session file layout and every
// embedded wire encoding. v2 dropped the raw constraint set from
// procedure records.
const sessionFormatVersion = 2

// session option bits (byte after the lattice signature).
const (
	sessOptMonomorphicCalls = 1 << iota
	sessOptPolymorphicExternals
	sessOptNoConstantSuppression
	sessOptNoSpecialize
)

// ErrNoSession reports a SaveSession call on an engine that has not
// recorded a run (no Infer yet, recording disabled, or the last run was
// not sessionable).
var ErrNoSession = fmt.Errorf("solver: engine has no recorded session")

// SaveSessionTo writes the engine's current session to w.
func (e *Engine) SaveSessionTo(w io.Writer) error {
	e.mu.Lock()
	sess := e.sess
	e.mu.Unlock()
	if sess == nil {
		return ErrNoSession
	}
	buf := sessionEnvelope.begin()
	buf = appendCacheString(buf, sess.latSig)
	var bits byte
	if sess.opts.Absint.MonomorphicCalls {
		bits |= sessOptMonomorphicCalls
	}
	if sess.opts.Absint.PolymorphicExternals {
		bits |= sessOptPolymorphicExternals
	}
	if sess.opts.Absint.NoConstantSuppression {
		bits |= sessOptNoConstantSuppression
	}
	if sess.opts.NoSpecialize {
		bits |= sessOptNoSpecialize
	}
	buf = append(buf, bits)
	buf = binary.AppendVarint(buf, int64(sess.opts.MaxSketchDepth))
	buf = appendCacheString(buf, sess.sumsDig)

	names := make([]string, 0, len(sess.index))
	for p := range sess.index {
		names = append(names, p)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	var rec []byte
	for _, p := range names {
		snap := sess.snap(p)
		rec = appendCacheString(rec[:0], snap.name)
		rec = snap.fp.AppendWire(rec)
		rec = constraints.AppendSchemeWire(rec, snap.pr.Scheme)
		if snap.pr.Sketch != nil {
			rec = append(rec, 1)
			blob := snap.pr.Sketch.AppendWire(nil)
			rec = binary.AppendUvarint(rec, uint64(len(blob)))
			rec = append(rec, blob...)
		} else {
			rec = append(rec, 0)
		}
		rec = binary.AppendUvarint(rec, uint64(len(snap.obs)))
		for _, o := range snap.obs {
			rec = appendCacheString(rec, o.key.callee)
			rec = appendCacheString(rec, o.key.loc)
			rec = binary.AppendUvarint(rec, uint64(o.inst))
			blob := o.sk.AppendWire(nil)
			rec = binary.AppendUvarint(rec, uint64(len(blob)))
			rec = append(rec, blob...)
		}
		rec = appendSCCKey(rec, snap.scc)
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		buf = append(buf, rec...)
	}
	return sessionEnvelope.seal(w, buf)
}

// appendSCCKey appends the wire form of an SCC member list: one cache
// string holding every member followed by a NUL.
func appendSCCKey(buf []byte, scc []string) []byte {
	n := 0
	for _, p := range scc {
		n += len(p) + 1
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, p := range scc {
		buf = append(buf, p...)
		buf = append(buf, 0)
	}
	return buf
}

// parseSCCKey is appendSCCKey's inverse on the key string.
func parseSCCKey(key string) []string {
	return strings.Split(strings.TrimSuffix(key, "\x00"), "\x00")
}

// SaveSession writes the engine's current session to path (atomically,
// like SaveCache).
func (e *Engine) SaveSession(path string) error { return sessionEnvelope.save(path, e.SaveSessionTo) }

// LoadSessionData decodes a session blob produced by SaveSessionTo and
// installs it as the engine's current session, replacing any recorded
// one. It verifies the checksum and version before decoding an entry;
// on any error the engine's session is unchanged. The session's lattice
// must already be built in this process (sketch blobs name it by
// signature). Returns the number of procedure snapshots loaded.
func (e *Engine) LoadSessionData(data []byte) (int, error) {
	body, n, err := sessionEnvelope.open(data)
	if err != nil {
		return 0, err
	}
	latSig, m, err := decodeCacheString(body[n:], "lattice signature")
	if err != nil {
		return 0, err
	}
	n += m
	if n >= len(body) {
		return 0, fmt.Errorf("solver: truncated session option bits")
	}
	bits := body[n]
	n++
	depth, m := binary.Varint(body[n:])
	if m <= 0 {
		return 0, fmt.Errorf("solver: truncated session sketch depth")
	}
	n += m
	sumsDig, m, err := decodeCacheString(body[n:], "summaries digest")
	if err != nil {
		return 0, err
	}
	n += m

	sess := &session{
		latSig:  latSig,
		sumsDig: sumsDig,
	}
	sess.opts.Absint.MonomorphicCalls = bits&sessOptMonomorphicCalls != 0
	sess.opts.Absint.PolymorphicExternals = bits&sessOptPolymorphicExternals != 0
	sess.opts.Absint.NoConstantSuppression = bits&sessOptNoConstantSuppression != 0
	sess.opts.NoSpecialize = bits&sessOptNoSpecialize != 0
	sess.opts.MaxSketchDepth = int(depth)

	count, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return 0, fmt.Errorf("solver: truncated session procedure count")
	}
	n += m
	if count > uint64(len(body)-n) {
		return 0, fmt.Errorf("solver: session procedure count %d exceeds file size", count)
	}

	sess.index = make(map[string]int, count)
	sess.snaps = make([]procSnap, count)

	// Pass 1: walk the length prefixes to find record boundaries.
	recs := make([][]byte, count)
	for i := range recs {
		ln, m := binary.Uvarint(body[n:])
		if m <= 0 || uint64(len(body)-n-m) < ln {
			return 0, fmt.Errorf("solver: truncated session procedure record")
		}
		n += m
		recs[i] = body[n : n+int(ln)]
		n += int(ln)
	}
	if n != len(body) {
		return 0, fmt.Errorf("solver: %d trailing bytes after session entries", len(body)-n)
	}

	// Pass 2: decode the records on all cores (the intern table and the
	// lattice registry are concurrency-safe), one contiguous stripe of
	// records per worker so each stripe's sketch memo needs no lock.
	// Errors keep the lowest record index so a corrupt file reports
	// deterministically.
	errs := make([]error, count)
	stripes := conc.Limit(0)
	if stripes > len(recs) {
		stripes = len(recs)
	}
	conc.ForEach(stripes, stripes, func(k int) {
		sketches := sketchMemo{}
		for i := k * len(recs) / stripes; i < (k+1)*len(recs)/stripes; i++ {
			errs[i] = decodeSessionRecord(recs[i], sketches, &sess.snaps[i])
		}
	})
	for i := range sess.snaps {
		if err := errs[i]; err != nil {
			return 0, err
		}
		name := sess.snaps[i].name
		if _, dup := sess.index[name]; dup {
			return 0, fmt.Errorf("solver: duplicate procedure %q in session file", name)
		}
		sess.index[name] = i
	}
	e.mu.Lock()
	e.sess = sess
	e.mu.Unlock()
	return len(sess.snaps), nil
}

// sketchMemo shares decoded sketches among the records of one decode
// stripe, keyed by blob bytes. Sealed sketches are immutable and shared
// freely (the shape cache serves one sealed sketch to every procedure
// with an isomorphic constraint set), so sessions repeat the same
// sketch blob many times and each distinct blob decodes once.
type sketchMemo map[string]*sketch.Sketch

// decode returns the sealed sketch blob encodes, which must span it
// exactly.
func (sm sketchMemo) decode(blob []byte, what string) (*sketch.Sketch, error) {
	if sk, ok := sm[string(blob)]; ok {
		return sk, nil
	}
	sk, used, err := sketch.DecodeSketchWire(blob)
	if err != nil {
		return nil, err
	}
	if used != len(blob) {
		return nil, fmt.Errorf("solver: %d trailing bytes in session %s blob", len(blob)-used, what)
	}
	sk.Seal()
	sm[string(blob)] = sk
	return sk, nil
}

// decodeSessionRecord decodes one per-procedure session record (the
// bytes inside its length prefix) into snap and must consume it
// exactly.
func decodeSessionRecord(rec []byte, sketches sketchMemo, snap *procSnap) error {
	n := 0
	decodeSketchBlob := func(what string) (*sketch.Sketch, error) {
		ln, m := binary.Uvarint(rec[n:])
		if m <= 0 || uint64(len(rec)-n-m) < ln {
			return nil, fmt.Errorf("solver: truncated %s in session file", what)
		}
		n += m
		sk, err := sketches.decode(rec[n:n+int(ln)], what)
		if err != nil {
			return nil, err
		}
		n += int(ln)
		return sk, nil
	}
	name, m, err := decodeCacheString(rec[n:], "procedure name")
	if err != nil {
		return err
	}
	n += m
	fp, m, err := bodyfp.DecodeFPWire(rec[n:])
	if err != nil {
		return err
	}
	n += m
	scheme, m, err := constraints.DecodeSchemeWire(rec[n:])
	if err != nil {
		return err
	}
	n += m
	pr := &ProcResult{Name: name, Scheme: scheme, SpecializedIns: map[string]*sketch.Sketch{}}
	if n >= len(rec) {
		return fmt.Errorf("solver: truncated session sketch flag")
	}
	hasSk := rec[n]
	n++
	switch hasSk {
	case 1:
		if pr.Sketch, err = decodeSketchBlob("procedure sketch"); err != nil {
			return err
		}
	case 0:
	default:
		return fmt.Errorf("solver: invalid session sketch flag %d", hasSk)
	}
	nObs, m := binary.Uvarint(rec[n:])
	if m <= 0 {
		return fmt.Errorf("solver: truncated session observation count")
	}
	n += m
	if nObs > uint64(len(rec)-n) {
		return fmt.Errorf("solver: session observation count %d exceeds file size", nObs)
	}
	obs := make([]actualObs, nObs)
	for j := range obs {
		callee, m, err := decodeCacheString(rec[n:], "observation callee")
		if err != nil {
			return err
		}
		n += m
		loc, m, err := decodeCacheString(rec[n:], "observation location")
		if err != nil {
			return err
		}
		n += m
		inst, m := binary.Uvarint(rec[n:])
		if m <= 0 {
			return fmt.Errorf("solver: truncated session observation")
		}
		n += m
		sk, err := decodeSketchBlob("observation sketch")
		if err != nil {
			return err
		}
		obs[j] = actualObs{
			key:    actualKey{callee: callee, loc: loc},
			caller: name,
			inst:   int(inst),
			sk:     sk,
		}
	}
	sccKey, m, err := decodeCacheString(rec[n:], "SCC key")
	if err != nil {
		return err
	}
	n += m
	if n != len(rec) {
		return fmt.Errorf("solver: %d trailing bytes in session procedure record", len(rec)-n)
	}
	*snap = procSnap{name: name, fp: fp, pr: pr, obs: obs, scc: parseSCCKey(sccKey)}
	return nil
}

// LoadSession reads a session file into an engine with fresh caches;
// compose with cache data via the engine's LoadCacheData method when
// both files are present.
func LoadSession(path string) (*Engine, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	e := NewEngine()
	procs, err := e.LoadSessionData(data)
	if err != nil {
		return nil, 0, err
	}
	return e, procs, nil
}
