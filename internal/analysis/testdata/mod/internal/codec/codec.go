// Package codec reads varints with encoding/binary outside
// internal/frame every way the canonvarint pass covers; encoding stays
// legal.
package codec

import (
	"bufio"
	"encoding/binary"
)

// Decode reads each kind of varint with its own rule.
func Decode(b []byte, r *bufio.Reader) {
	binary.Uvarint(b)      // want canonvarint
	binary.Varint(b)       // want canonvarint
	binary.ReadUvarint(r)  // want canonvarint
	binary.ReadVarint(r)   // want canonvarint
	read := binary.Uvarint // want canonvarint
	read(b)
}

// Encode writes varints, which is deterministic and legal anywhere.
func Encode(dst []byte, u uint64, v int64) []byte {
	return binary.AppendVarint(binary.AppendUvarint(dst, u), v)
}
