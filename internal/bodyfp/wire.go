package bodyfp

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"

	"retypd/internal/asm"
)

// Wire form of a body fingerprint: everything EquivalentTo,
// SameRegisters and Calls need, rendered to canonical bytes. The
// canonical encoding itself is already portable when the fingerprint
// was computed with named callees and a signature-string lattice
// identity (the engine's incremental session does exactly that); the
// grouping hash is process-seeded and therefore recomputed on decode
// rather than shipped.

// AppendWire appends fp's wire form to buf: uvarint(encoding length) ++
// canonical encoding ++ uvarint(register count) ++ register bytes ++
// uvarint(call count) ++ per call uvarint(inst) and the target name.
func (fp *FP) AppendWire(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fp.enc)))
	buf = append(buf, fp.enc...)
	buf = binary.AppendUvarint(buf, uint64(len(fp.regs)))
	for _, r := range fp.regs {
		buf = append(buf, byte(r))
	}
	buf = binary.AppendUvarint(buf, uint64(len(fp.calls)))
	for _, c := range fp.calls {
		buf = binary.AppendUvarint(buf, uint64(c.Inst))
		buf = binary.AppendUvarint(buf, uint64(len(c.Target)))
		buf = append(buf, c.Target...)
	}
	return buf
}

// DecodeFPWire decodes one fingerprint from the front of data,
// recomputing the (process-local) grouping hash from the canonical
// encoding, and returns the bytes consumed. It refuses encodings of a
// different version.
func DecodeFPWire(data []byte) (*FP, int, error) {
	encLen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < encLen {
		return nil, 0, fmt.Errorf("bodyfp: truncated canonical encoding in wire form")
	}
	enc := append([]byte(nil), data[n:n+int(encLen)]...)
	n += int(encLen)
	if len(enc) < 1 || enc[0] != encVersion {
		return nil, 0, fmt.Errorf("bodyfp: unsupported encoding version in wire form")
	}
	fp := &FP{enc: enc, hash: maphash.Bytes(seed, enc)}
	nregs, m := binary.Uvarint(data[n:])
	if m <= 0 || uint64(len(data)-n-m) < nregs {
		return nil, 0, fmt.Errorf("bodyfp: truncated register list in wire form")
	}
	n += m
	if nregs > 0 {
		fp.regs = make([]asm.Reg, nregs)
		for i := range fp.regs {
			fp.regs[i] = asm.Reg(data[n])
			n++
		}
	}
	ncalls, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return nil, 0, fmt.Errorf("bodyfp: truncated call list in wire form")
	}
	n += m
	if ncalls > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("bodyfp: call count %d exceeds wire form size", ncalls)
	}
	if ncalls > 0 {
		fp.calls = make([]Call, 0, ncalls)
	}
	for i := uint64(0); i < ncalls; i++ {
		inst, m := binary.Uvarint(data[n:])
		if m <= 0 {
			return nil, 0, fmt.Errorf("bodyfp: truncated call site in wire form")
		}
		n += m
		ln, m := binary.Uvarint(data[n:])
		if m <= 0 || uint64(len(data)-n-m) < ln {
			return nil, 0, fmt.Errorf("bodyfp: truncated call target in wire form")
		}
		n += m
		fp.calls = append(fp.calls, Call{Inst: int(inst), Target: string(data[n : n+int(ln)])})
		n += int(ln)
	}
	return fp, n, nil
}
