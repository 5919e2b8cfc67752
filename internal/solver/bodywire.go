package solver

import (
	"encoding/binary"
	"fmt"
	"sort"

	"retypd/internal/bodyfp"
	"retypd/internal/constraints"
	"retypd/internal/sketch"
)

// Wire form of the engine's body-class table — the body section of a
// cache file (layout in persist.go). Classes travel with their
// table-scoped ids because caller fingerprints filed in the same table
// embed callee class ids; loadWire therefore refuses any table that
// has already filed a class.

func appendCacheString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeCacheString(data []byte, what string) (string, int, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < ln {
		return "", 0, fmt.Errorf("solver: truncated %s in body section", what)
	}
	return string(data[n : n+int(ln)]), n + int(ln), nil
}

// appendWire appends the table's wire form to buf: classes in id order,
// each entry blob length-prefixed so loaders can keep it whole. A blob
// carried in from a cache file is written verbatim, decoded or not;
// only entries published in this process are encoded here.
func (bc *bodyCache) appendWire(buf []byte) []byte {
	bc.mu.Lock()
	nextID := bc.nextID
	type snap struct {
		cls   *bodyClass
		entry *bodyEntry // snapshotted under the lock (set-once after)
		blob  []byte     // likewise (only ever cleared after load)
	}
	snaps := make([]snap, 0, len(bc.byHash))
	for _, chain := range bc.byHash {
		for _, c := range chain {
			snaps = append(snaps, snap{c, c.entry, c.blob})
		}
	}
	bc.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].cls.id < snaps[j].cls.id })

	buf = binary.AppendUvarint(buf, uint64(nextID))
	buf = binary.AppendUvarint(buf, uint64(len(snaps)))
	for _, p := range snaps {
		buf = binary.AppendUvarint(buf, uint64(p.cls.id))
		buf = p.cls.fp.AppendWire(buf)
		blob := p.blob
		if blob == nil && p.entry != nil {
			blob = appendEntryWire(nil, p.entry)
		}
		if blob == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return buf
}

func appendEntryWire(buf []byte, e *bodyEntry) []byte {
	buf = appendCacheString(buf, e.rep)
	buf = e.fp.AppendWire(buf)
	buf = constraints.AppendSchemeWire(buf, e.scheme)
	buf = e.sk.AppendWire(buf)
	buf = binary.AppendUvarint(buf, uint64(len(e.namedProc)))
	for _, b := range e.namedProc {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.obs)))
	for _, o := range e.obs {
		buf = binary.AppendUvarint(buf, uint64(o.inst))
		buf = appendCacheString(buf, o.loc)
		buf = o.sk.AppendWire(buf)
	}
	return buf
}

// loadWire installs a body section into bc, which must never have
// filed a class (see the persistence doc: merging would renumber ids
// that caller fingerprints embed). Class ids and fingerprints are
// decoded here, because membership needs them; each entry blob is kept
// undecoded, as a slice of data, until its class is first hit
// (bodyCache.resolve). Returns bytes consumed and the classes and
// entry blobs installed.
func (bc *bodyCache) loadWire(data []byte) (n, classes, entries int, err error) {
	if !bc.empty() {
		return 0, 0, 0, fmt.Errorf("solver: body-class section can only load into an empty table")
	}
	nextID, m := binary.Uvarint(data)
	if m <= 0 {
		return 0, 0, 0, fmt.Errorf("solver: truncated body table size")
	}
	n += m
	count, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return 0, 0, 0, fmt.Errorf("solver: truncated body class count")
	}
	n += m
	if count > uint64(len(data)-n) {
		return 0, 0, 0, fmt.Errorf("solver: body class count %d exceeds section size", count)
	}
	byHash := map[uint64][]*bodyClass{}
	var lastID int64 = -1
	for i := uint64(0); i < count; i++ {
		id, m := binary.Uvarint(data[n:])
		if m <= 0 {
			return 0, 0, 0, fmt.Errorf("solver: truncated body class id")
		}
		n += m
		if int64(id) <= lastID || id >= nextID {
			return 0, 0, 0, fmt.Errorf("solver: body class id %d out of order or beyond table size", id)
		}
		lastID = int64(id)
		fp, m, err := bodyfp.DecodeFPWire(data[n:])
		if err != nil {
			return 0, 0, 0, err
		}
		n += m
		if n >= len(data) {
			return 0, 0, 0, fmt.Errorf("solver: truncated body entry flag")
		}
		hasEntry := data[n]
		n++
		cls := &bodyClass{id: uint32(id), fp: fp}
		if hasEntry == 1 {
			ln, m := binary.Uvarint(data[n:])
			if m <= 0 || uint64(len(data)-n-m) < ln {
				return 0, 0, 0, fmt.Errorf("solver: truncated body entry blob")
			}
			n += m
			end := n + int(ln)
			cls.blob = data[n:end:end]
			entries++
			n = end
		} else if hasEntry != 0 {
			return 0, 0, 0, fmt.Errorf("solver: invalid body entry flag %d", hasEntry)
		}
		byHash[fp.Hash()] = append(byHash[fp.Hash()], cls)
		classes++
	}
	bc.mu.Lock()
	bc.byHash = byHash
	bc.nextID = uint32(nextID)
	bc.mu.Unlock()
	return n, classes, entries, nil
}

// decodeEntryWire decodes one entry blob; it must consume the blob
// exactly.
func decodeEntryWire(data []byte) (*bodyEntry, error) {
	e := &bodyEntry{}
	var n int
	var err error
	e.rep, n, err = decodeCacheString(data, "entry rep name")
	if err != nil {
		return nil, err
	}
	fp, m, err := bodyfp.DecodeFPWire(data[n:])
	if err != nil {
		return nil, err
	}
	e.fp = fp
	n += m
	e.scheme, m, err = constraints.DecodeSchemeWire(data[n:])
	if err != nil {
		return nil, err
	}
	n += m
	e.sk, m, err = sketch.DecodeSketchWire(data[n:])
	if err != nil {
		return nil, err
	}
	e.sk.Seal()
	n += m
	nCalls, m := binary.Uvarint(data[n:])
	if m <= 0 || uint64(len(data)-n-m) < nCalls {
		return nil, fmt.Errorf("solver: truncated body entry call flags")
	}
	n += m
	e.namedProc = make([]bool, nCalls)
	for i := range e.namedProc {
		switch data[n] {
		case 1:
			e.namedProc[i] = true
		case 0:
		default:
			return nil, fmt.Errorf("solver: invalid body entry call flag %d", data[n])
		}
		n++
	}
	nObs, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return nil, fmt.Errorf("solver: truncated body entry observation count")
	}
	n += m
	if nObs > uint64(len(data)-n) {
		return nil, fmt.Errorf("solver: body entry observation count %d exceeds blob size", nObs)
	}
	e.obs = make([]entryObs, nObs)
	for i := range e.obs {
		inst, m := binary.Uvarint(data[n:])
		if m <= 0 {
			return nil, fmt.Errorf("solver: truncated body entry observation")
		}
		n += m
		e.obs[i].inst = int(inst)
		e.obs[i].loc, m, err = decodeCacheString(data[n:], "observation location")
		if err != nil {
			return nil, err
		}
		n += m
		e.obs[i].sk, m, err = sketch.DecodeSketchWire(data[n:])
		if err != nil {
			return nil, err
		}
		e.obs[i].sk.Seal()
		n += m
	}
	if n != len(data) {
		return nil, fmt.Errorf("solver: %d trailing bytes in body entry blob", len(data)-n)
	}
	return e, nil
}
