package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// sealed builds a frame around body — everything after the CRC field —
// with a valid CRC, so a seed reaches the checks behind it.
func sealed(body []byte) []byte {
	frame := []byte{frameMagic[0], frameMagic[1], frameMagic[2], frameVersion, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// frameSeed is one named frame read back under key; valid marks the
// frames parseFrame must accept.
type frameSeed struct {
	name  string
	frame []byte
	key   string
	valid bool
}

// frameSeeds is the named edge-case table behind both the unit test and
// the fuzz corpus: well-formed frames, and every way one can be torn,
// rotted, misfiled or lie about its lengths under a valid CRC.
func frameSeeds() []frameSeed {
	const key = "0f3c9a"
	payload := []byte("PCl\x01 an opaque plan payload")
	good := appendFrame(nil, key, payload)
	body := func(klen []byte, k string, plen []byte, p []byte) []byte {
		b := append(append([]byte(nil), klen...), k...)
		return append(append(b, plen...), p...)
	}
	uv := func(v int) []byte { return binary.AppendUvarint(nil, uint64(v)) }
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01

	return []frameSeed{
		{"well-formed", good, key, true},
		{"empty payload", appendFrame(nil, key, nil), key, true},
		{"empty key", appendFrame(nil, "", payload), "", true},
		{"empty file", nil, key, false},
		{"header only", good[:frameHeaderSize], key, false},
		{"torn mid-payload", good[:len(good)-5], key, false},
		{"bit flip under the CRC", flipped, key, false},
		{"wrong magic", append([]byte("PCX"), good[3:]...), key, false},
		{"future version", append([]byte{'P', 'C', 'S', frameVersion + 1}, good[4:]...), key, false},
		{"misfiled under another key", good, "another", false},
		{"misfiled under a long unprintable key", good, strings.Repeat("\xf2", 1629), false},
		{"key length lies", sealed(body(uv(1<<20), key, uv(len(payload)), payload)), key, false},
		{"payload length lies", sealed(body(uv(len(key)), key, uv(1<<20), payload)), key, false},
		{"trailing garbage", sealed(append(body(uv(len(key)), key, uv(len(payload)), payload), 0)), key, false},
		{"padded key length", sealed(body([]byte{byte(len(key)) | 0x80, 0}, key, uv(len(payload)), payload)), key, false},
		{"padded payload length", sealed(body(uv(len(key)), key, []byte{byte(len(payload)) | 0x80, 0}, payload)), key, false},
	}
}

// allocated returns the fewest heap bytes any of three runs of f
// allocated: the counter is process-wide, and the minimum sheds what
// other goroutines allocated meanwhile.
func allocated(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkStoreFrame is the property: parseFrame never panics, allocates
// at most linearly in the frame's length, and accepts only the one
// frame appendFrame writes for its key and payload.
func checkStoreFrame(t *testing.T, frame []byte, key string) {
	payload, err := parseFrame(frame, key)
	spent := allocated(func() { _, _ = parseFrame(frame, key) })
	if bound := uint64(4*(len(frame)+len(key)) + 4096); spent > bound {
		t.Fatalf("parsing a %d-byte frame allocated %d bytes; bound %d", len(frame), spent, bound)
	}
	if err == nil && !bytes.Equal(appendFrame(nil, key, payload), frame) {
		t.Fatal("parseFrame accepted a frame appendFrame would not write for its key and payload")
	}
}

func TestStoreFrameSeeds(t *testing.T) {
	for _, s := range frameSeeds() {
		t.Run(s.name, func(t *testing.T) {
			checkStoreFrame(t, s.frame, s.key)
			if _, err := parseFrame(s.frame, s.key); (err == nil) != s.valid {
				t.Errorf("parseFrame: err = %v, want valid = %v", err, s.valid)
			}
		})
	}
}

// FuzzStoreFrame runs checkStoreFrame over arbitrary frames and keys,
// seeded with the named edge cases.
func FuzzStoreFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s.frame, s.key)
	}
	f.Fuzz(checkStoreFrame)
}

// FuzzStoreSegment opens a store over one fuzzed segment file: Open
// never panics, and every entry it then serves is a whole frame of
// the file, CRC included, under its own key.
func FuzzStoreSegment(f *testing.F) {
	two := append(appendFrame(nil, "a", []byte("x")), appendFrame(nil, "b", []byte("y"))...)
	f.Add(two)
	f.Add(append(append([]byte(nil), two...), 'P', 'C', 'S'))       // torn tail
	f.Add(append(appendFrame(nil, "a", []byte("old")), two...))     // a later frame of a key wins
	f.Add(append(append([]byte(nil), two[:len(two)/2]...), two...)) // torn frame mid-segment
	for _, s := range frameSeeds() {
		f.Add(s.frame)
	}
	// One dir for every input: Open creates nothing, so each input
	// only rewrites the one segment file.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", 0, segSuffix)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close(context.Background()) // inputs come faster than GC finalizes files
		s.mu.Lock()
		keys := make([]string, 0, len(s.index))
		for k := range s.index {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		for _, k := range keys {
			p, ok := s.Get(k)
			if !ok {
				t.Fatalf("Get missed key %q, which Open indexed", k)
			}
			if !bytes.Contains(data, appendFrame(nil, k, p)) {
				t.Fatalf("Get(%q) served %q, which no whole frame of the segment holds", k, p)
			}
		}
		if st := s.Stats(); st.Corrupt > 1 {
			t.Fatalf("one segment counted %d corrupt frames; its scan stops at the first", st.Corrupt)
		}
	})
}
