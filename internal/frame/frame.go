// Package frame reads the binary frames of the dag, wire and store
// packages: a 4-byte envelope ('P' 'C', kind, version), then fields in
// fixed order.  Plans are keyed by hashes of undecoded frames, sound
// only while each value has one accepted encoding, so Reader rejects
// padded varints, lengths past the end and trailing bytes.  It is
// sticky: after the first failure every read returns zero and Err keeps
// that failure, so a decoder checks Err once per record, before it
// allocates or loops by a decoded count.  Each format's own policy
// (ranges, enum bytes, checksums) reports through Fail.
package frame

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendHeader appends the 4-byte envelope of a frame of the given
// kind and version.
func AppendHeader(dst []byte, kind, version byte) []byte {
	return append(dst, 'P', 'C', kind, version)
}

// AppendBytes appends s as a length-prefixed byte string, the field
// Reader.Bytes and Reader.String read.
func AppendBytes[S ~string | ~[]byte](dst []byte, s S) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Reader is a bounds-checked cursor over one frame.
type Reader struct {
	data   []byte
	off    int
	prefix string // opens every error: the decoding package's name
	err    error
}

// Open checks data's envelope and returns a reader over the fields
// after it; prefix (e.g. "wire: ") opens every error it reports.
func Open(data []byte, prefix string, kind, version byte) Reader {
	r := Reader{data: data, off: 4, prefix: prefix}
	switch {
	case len(data) < 4:
		r.failf("%d-byte input shorter than the 4-byte header", len(data))
	case data[0] != 'P' || data[1] != 'C':
		r.failf("bad magic % x", data[:2])
	case data[2] != kind:
		r.failf("frame kind %q, want %q", data[2], kind)
	case data[3] != version:
		r.failf("unsupported version %d (want %d)", data[3], version)
	}
	return r
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns how many bytes of the frame have been read.
func (r *Reader) Offset() int { return r.off }

// Fail records err unless an earlier failure is kept, so a caller's
// policy check ranks with the reads around it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.data, r.off = nil, 0
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.Fail(fmt.Errorf(r.prefix+format, args...))
}

// truncated reports a read past the end, where every read lands after
// a failure; out of line, it leaves Byte small enough to inline.
//
//go:noinline
func (r *Reader) truncated(what string) {
	if r.err == nil {
		r.failf("truncated at offset %d reading %s", r.off, what)
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte(what string) (b byte) {
	if r.off < len(r.data) {
		b = r.data[r.off]
		r.off++
		return
	}
	r.truncated(what)
	return
}

// small reads a one-byte varint, most of any frame, inline; the varint
// reads call uvarint only for a longer value or a failure.
func (r *Reader) small() (uint64, bool) {
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1]), true
	}
	return 0, false
}

// Uvarint reads an unsigned varint no larger than max.
func (r *Reader) Uvarint(what string, max uint64) uint64 {
	v, ok := r.small()
	if !ok {
		v = r.uvarint(what)
	}
	if v > max {
		r.failf("%s %d out of range", what, v)
		return 0
	}
	return v
}

// Varint reads a zigzag-encoded signed varint within [min, max].
func (r *Reader) Varint(what string, min, max int64) int64 {
	u, ok := r.small()
	if !ok {
		u = r.uvarint(what)
	}
	v := int64(u>>1) ^ -int64(u&1)
	if v < min || v > max {
		r.failf("%s %d out of range", what, v)
		return 0
	}
	return v
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int(what string) int {
	return int(r.Varint(what, math.MinInt, math.MaxInt))
}

// uvarint is the out-of-line varint path: two bytes without the general
// loop, longer values through encoding/binary's, and the failures.
func (r *Reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+1 < len(r.data) {
		if b1 := r.data[r.off+1]; b1 < 0x80 && b1 != 0 {
			v := uint64(r.data[r.off]&0x7f) | uint64(b1)<<7
			r.off += 2
			return v
		}
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.truncated(what)
		return 0
	}
	if n > 1 && r.data[r.off+n-1] == 0 {
		// A redundant zero group (0x80 0x00 for 0) would give one value
		// two encodings.
		r.failf("non-minimal varint at offset %d reading %s", r.off, what)
		return 0
	}
	r.off += n
	return v
}

// Len reads a uvarint length or count no larger than the bytes left, so
// a lying prefix cannot size an allocation the frame does not back.
func (r *Reader) Len(what string) int {
	v, ok := r.small()
	if !ok {
		v = r.uvarint(what)
	}
	if rem := len(r.data) - r.off; v > uint64(rem) {
		r.failf("%s length %d exceeds the %d input bytes remaining", what, v, rem)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string as a view into the frame.
func (r *Reader) Bytes(what string) []byte {
	n := r.Len(what)
	r.off += n
	return r.data[r.off-n : r.off]
}

// String reads a length-prefixed string, copied out of the frame.
func (r *Reader) String(what string) string {
	return string(r.Bytes(what))
}

// Take returns the next n bytes as a view into the frame.
func (r *Reader) Take(n int, what string) []byte {
	if rem := len(r.data) - r.off; n < 0 || n > rem {
		r.failf("%s length %d exceeds the %d input bytes remaining", what, n, rem)
		return nil
	}
	r.off += n
	return r.data[r.off-n : r.off]
}

// Uint32 reads a 4-byte little-endian value.
func (r *Reader) Uint32(what string) uint32 {
	if len(r.data)-r.off < 4 {
		r.truncated(what)
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.data[r.off-4:])
}

// Float64 reads an 8-byte little-endian IEEE 754 value.
func (r *Reader) Float64(what string) float64 {
	if len(r.data)-r.off < 8 {
		r.truncated(what)
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off-8:]))
}

// Rest returns the unread bytes as a view into the frame.
func (r *Reader) Rest() []byte {
	rest := r.data[r.off:]
	r.off = len(r.data)
	return rest
}

// Finish fails if bytes follow the last field and returns Err.
func (r *Reader) Finish() error {
	if r.off != len(r.data) {
		r.failf("%d trailing bytes after the frame", len(r.data)-r.off)
	}
	return r.err
}
