// Package frame is the sanctioned varint reader: the canonvarint pass
// exempts it, so the readers codec is flagged for are legal here.
package frame

import "encoding/binary"

// Uvarint reads a varint and rejects a padded one.
func Uvarint(b []byte) (uint64, bool) {
	v, n := binary.Uvarint(b) // allowed: inside internal/frame
	return v, n > 0 && (n == 1 || b[n-1] != 0)
}
