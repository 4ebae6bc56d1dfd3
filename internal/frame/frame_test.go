package frame

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

const testKind, testVersion = 'T', 3

// body returns a test frame: the envelope, then fields.
func body(fields ...byte) []byte {
	return append(AppendHeader(nil, testKind, testVersion), fields...)
}

func open(data []byte) Reader { return Open(data, "test: ", testKind, testVersion) }

// padded returns an n-byte encoding of the (n-1)-byte minimal value
// 1<<(7*(n-2)): its last group continued into a redundant zero group.
func padded(n int) []byte {
	b := binary.AppendUvarint(nil, 1<<(7*(n-2)))
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

// TestVarintLengths reads every varint length from 1 to 10 bytes, in
// its minimal form (accepted, exact value, whole frame consumed) and
// padded by a zero group (rejected as non-minimal), through both
// Uvarint and Varint.
func TestVarintLengths(t *testing.T) {
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		u := uint64(1) << (7 * (n - 1)) // the smallest n-byte value
		enc := binary.AppendUvarint(nil, u)
		if len(enc) != n {
			t.Fatalf("%d-byte case encodes in %d bytes", n, len(enc))
		}
		r := open(body(enc...))
		if got := r.Uvarint("u", math.MaxUint64); got != u || r.Finish() != nil {
			t.Errorf("Uvarint of %d-byte % x = %d, err %v; want %d", n, enc, got, r.Err(), u)
		}
		r = open(body(enc...))
		if got, want := r.Varint("v", math.MinInt64, math.MaxInt64), int64(u>>1)^-int64(u&1); got != want || r.Finish() != nil {
			t.Errorf("Varint of %d-byte % x = %d, err %v; want %d", n, enc, got, r.Err(), want)
		}
		if n == 1 {
			continue // a one-byte varint has no redundant group to carry
		}
		pad := padded(n)
		for name, read := range map[string]func(*Reader){
			"Uvarint": func(r *Reader) { r.Uvarint("field", math.MaxUint64) },
			"Varint":  func(r *Reader) { r.Varint("field", math.MinInt64, math.MaxInt64) },
		} {
			r := open(body(pad...))
			read(&r)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), "test: non-minimal varint at offset 4 reading field") {
				t.Errorf("%s of %d-byte padded % x: err = %v, want a non-minimal rejection", name, n, pad, err)
			}
		}
	}
	// Past ten bytes, or a tenth byte above 1, a varint overflows 64
	// bits: no value, so the frame is truncated there.
	for _, enc := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		r := open(body(enc...))
		if got := r.Uvarint("big", math.MaxUint64); got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
			t.Errorf("overflowing % x = %d, err %v; want a truncation", enc, got, r.Err())
		}
	}
}

// TestReaderRejects runs each framing failure the reader owns.
func TestReaderRejects(t *testing.T) {
	u32 := func(r *Reader) { r.Uint32("epoch") }
	none := func(*Reader) {}
	rows := []struct {
		name string
		data []byte
		read func(*Reader)
		want string
	}{
		{"short header", []byte{'P', 'C', testKind}, none, "test: 3-byte input shorter than the 4-byte header"},
		{"bad magic", []byte{'P', 'X', testKind, testVersion}, none, "test: bad magic 50 58"},
		{"wrong kind", AppendHeader(nil, 'Q', testVersion), none, "test: frame kind 'Q', want 'T'"},
		{"future version", AppendHeader(nil, testKind, testVersion+1), none, "test: unsupported version 4 (want 3)"},
		{"length one past the end", body(3, 'a', 'b'), func(r *Reader) { r.Bytes("name") }, "test: name length 3 exceeds the 2 input bytes remaining"},
		{"varint cut short", body(0x80), func(r *Reader) { r.Uvarint("count", math.MaxUint64) }, "test: truncated at offset 4 reading count"},
		{"byte past the end", body(), func(r *Reader) { r.Byte("kind") }, "test: truncated at offset 4 reading kind"},
		{"uint32 cut short", body(1, 2, 3), u32, "test: truncated at offset 4 reading epoch"},
		{"float64 cut short", body(1, 2, 3, 4, 5, 6, 7), func(r *Reader) { r.Float64("rate") }, "test: truncated at offset 4 reading rate"},
		{"take past the end", body(1), func(r *Reader) { r.Take(2, "graph") }, "test: graph length 2 exceeds the 1 input bytes remaining"},
		{"uvarint above its bound", body(0x81, 0x01), func(r *Reader) { r.Uvarint("count", 128) }, "test: count 129 out of range"},
		{"varint below its bound", body(0x81, 0x01), func(r *Reader) { r.Varint("weight", -64, 64) }, "test: weight -65 out of range"},
		{"trailing bytes", body(7, 0, 0), func(r *Reader) { r.Uvarint("x", math.MaxUint64) }, "test: 2 trailing bytes after the frame"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := open(row.data)
			row.read(&r)
			if err := r.Finish(); err == nil || err.Error() != row.want {
				t.Errorf("err = %v, want %q", err, row.want)
			}
		})
	}
}

// TestReaderFields reads one field of every kind, the length prefix
// ending exactly at the frame's end included.
func TestReaderFields(t *testing.T) {
	data := AppendHeader(nil, testKind, testVersion)
	data = append(data, 0xfe)
	data = binary.AppendVarint(data, -300)
	data = binary.LittleEndian.AppendUint32(data, 0xdeadbeef)
	data = binary.LittleEndian.AppendUint64(data, math.Float64bits(2.5))
	data = binary.AppendUvarint(data, 2)
	data = append(data, "hi"...)
	data = append(data, 3, 'a', 'b', 'c')
	r := open(data)
	if b := r.Byte("b"); b != 0xfe {
		t.Errorf("Byte = %#x", b)
	}
	if v := r.Int("i"); v != -300 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Uint32("u"); v != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", v)
	}
	if f := r.Float64("f"); f != 2.5 {
		t.Errorf("Float64 = %v", f)
	}
	if s := r.String("s"); s != "hi" {
		t.Errorf("String = %q", s)
	}
	if b := r.Bytes("tail"); string(b) != "abc" {
		t.Errorf("Bytes = %q", b)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if r.Offset() != len(data) {
		t.Errorf("Offset = %d, want %d", r.Offset(), len(data))
	}
	r = open(body('x', 'y'))
	if rest := r.Rest(); string(rest) != "xy" || r.Finish() != nil {
		t.Errorf("Rest = %q, err %v", rest, r.Err())
	}
}

// TestReaderSticky pins the sticky contract: after the first failure
// every read returns zero, Fail and later failures leave the first
// error in place, and Finish reports it.
func TestReaderSticky(t *testing.T) {
	r := open(body(0x80, 0x00, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5))
	if v := r.Uvarint("first", math.MaxUint64); v != 0 {
		t.Errorf("failed Uvarint = %d, want 0", v)
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "reading first") {
		t.Fatalf("err = %v, want the padded first field", first)
	}
	r.Fail(errString("a policy violation after the first failure"))
	if r.Byte("b") != 0 || r.Uvarint("u", math.MaxUint64) != 0 || r.Varint("v", math.MinInt64, math.MaxInt64) != 0 || r.Int("i") != 0 ||
		r.Len("l") != 0 || r.Bytes("bs") != nil || r.String("s") != "" || r.Take(0, "t") != nil ||
		r.Uint32("u32") != 0 || r.Float64("f") != 0 || r.Rest() != nil {
		t.Error("a read after the failure returned a non-zero value")
	}
	if err := r.Finish(); err != first {
		t.Errorf("Finish = %v, want the first error %v", err, first)
	}
	if r.Err() != first {
		t.Errorf("Err = %v, want the first error %v", r.Err(), first)
	}

	// A policy failure ranks with the reads: it is kept, and the reads
	// after it return zero.
	r = open(body(1, 2))
	r.Uvarint("a", math.MaxUint64)
	policy := errString("test: a out of range")
	r.Fail(policy)
	if v := r.Uvarint("b", math.MaxUint64); v != 0 || r.Finish() != policy {
		t.Errorf("after Fail: read %d, Finish %v; want 0, %v", v, r.Err(), policy)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// TestReadsDoNotAllocate pins the success path: a Reader lives on the
// caller's stack and its reads allocate nothing.
func TestReadsDoNotAllocate(t *testing.T) {
	data := body(1, 0x96, 0x01, 0xff, 0xff, 0x03, 2, 'o', 'k', 9, 9, 9, 9)
	allocs := testing.AllocsPerRun(100, func() {
		r := open(data)
		r.Uvarint("a", math.MaxUint64)
		r.Varint("b", math.MinInt64, math.MaxInt64)
		r.Int("c")
		r.Bytes("d")
		r.Uint32("e")
		if r.Finish() != nil {
			t.Fatal(r.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("reads allocate %.1f times per frame, want 0", allocs)
	}
}
