package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// The package has one frame format. A journal is a run of frames
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// and a spill segment is the same run with each frame preceded by its
// slot name, [4-byte LE name length][name].

// maxRecord caps a journal record's claimed length: a larger claim is a
// torn tail. Spill payloads have no cap; the bytes on disk bound them.
const maxRecord = 64 << 20

// writeFrame writes payload as one frame, preceded by [name-len][name]
// when named, and returns the bytes written.
func writeFrame(w io.Writer, named bool, name string, payload []byte) (int64, error) {
	hdr := make([]byte, 0, 12+len(name))
	if named {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(name)))
		hdr = append(hdr, name...)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(len(hdr) + len(payload)), nil
}

// frameReader reads back what writeFrame wrote and stops at the first
// torn or corrupt frame: a short header, name or payload, a length over
// limit, or a CRC mismatch. off is the offset just past the last frame
// next returned, where an appender resumes after a crash.
type frameReader struct {
	r     *bufio.Reader
	named bool
	limit uint32 // payload length cap; 0 means none
	off   int64
	buf   bytes.Buffer
}

// next returns the next intact frame; ok is false past the intact
// prefix. The payload is valid until the following call.
func (fr *frameReader) next() (name string, payload []byte, ok bool) {
	size := int64(8)
	if fr.named {
		var l [4]byte
		if _, err := io.ReadFull(fr.r, l[:]); err != nil {
			return "", nil, false
		}
		n := int64(binary.LittleEndian.Uint32(l[:]))
		b, ok := fr.read(n)
		if !ok {
			return "", nil, false
		}
		name = string(b)
		size += 4 + n
	}
	var hdr [8]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return "", nil, false
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if fr.limit > 0 && n > fr.limit {
		return "", nil, false
	}
	payload, ok = fr.read(int64(n))
	if !ok || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return "", nil, false
	}
	fr.off += size + int64(n)
	return name, payload, true
}

// read returns the next n bytes. The buffer grows as they arrive, so a
// length claim costs what the input actually holds.
func (fr *frameReader) read(n int64) ([]byte, bool) {
	fr.buf.Reset()
	m, err := fr.buf.ReadFrom(io.LimitReader(fr.r, n))
	return fr.buf.Bytes(), err == nil && m == n
}
