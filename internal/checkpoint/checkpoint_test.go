package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// sample builds a representative snapshot with several section shapes.
func sample() *Snapshot {
	s := New("aft/test", 3)
	s.Add("alpha", []byte("payload-one"))
	s.Add("empty", nil)
	var w Writer
	w.U64(12345)
	w.I64(-9)
	w.F64(0.25)
	w.Bool(true)
	w.String("hello")
	w.U64s([]uint64{7, 8})
	s.Add("binary", w.Data())
	return s
}

// TestRoundTrip asserts Encode/Decode preserves kind, version, section
// order, and payloads.
func TestRoundTrip(t *testing.T) {
	s := sample()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "aft/test" || got.Version != 3 {
		t.Fatalf("kind/version = %q/%d", got.Kind, got.Version)
	}
	wantNames := []string{"alpha", "empty", "binary"}
	names := got.Names()
	if len(names) != len(wantNames) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("names = %v, want %v", names, wantNames)
		}
	}
	if string(got.Section("alpha")) != "payload-one" {
		t.Fatalf("alpha = %q", got.Section("alpha"))
	}
	if !got.Has("empty") || len(got.Section("empty")) != 0 {
		t.Fatal("empty section lost")
	}
	if got.Has("missing") || got.Section("missing") != nil {
		t.Fatal("phantom section")
	}

	r := NewReader(got.Section("binary"))
	if v := r.U64(); v != 12345 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.I64(); v != -9 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.F64(); v != 0.25 {
		t.Fatalf("F64 = %v", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if v := r.String(); v != "hello" {
		t.Fatalf("String = %q", v)
	}
	us := r.U64s()
	if len(us) != 2 || us[0] != 7 || us[1] != 8 {
		t.Fatalf("U64s = %v", us)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAddReplacesInPlace asserts Add with a duplicate name overwrites
// without reordering, keeping the encoding deterministic.
func TestAddReplacesInPlace(t *testing.T) {
	s := New("k", 1)
	s.Add("a", []byte("1"))
	s.Add("b", []byte("2"))
	s.Add("a", []byte("3"))
	if n := s.Names(); len(n) != 2 || n[0] != "a" || n[1] != "b" {
		t.Fatalf("names = %v", n)
	}
	if string(s.Section("a")) != "3" {
		t.Fatalf("a = %q", s.Section("a"))
	}
}

// TestDecodeRejectsForeignData asserts non-snapshot inputs fail with
// ErrNotSnapshot.
func TestDecodeRejectsForeignData(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), []byte("{\"json\":true}"), bytes.Repeat([]byte{0xff}, 64)} {
		if _, err := Decode(data); !errors.Is(err, ErrNotSnapshot) {
			t.Fatalf("Decode(%q) = %v, want ErrNotSnapshot", data, err)
		}
	}
}

// TestDecodeRejectsEveryTruncation truncates the encoding at every
// length and demands an error each time — no prefix of a snapshot may
// decode as a snapshot.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	enc := sample().Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(enc))
		}
	}
}

// TestDecodeRejectsEveryByteFlip flips each byte of the encoding in
// turn; the checksum must catch every single-byte corruption.
func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	enc := sample().Encode()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte flip at offset %d decoded successfully", i)
		}
	}
}

// TestDecodeRejectsFutureFormatVersion rewrites the container version
// (re-checksummed, so only the version differs) and expects
// ErrFormatVersion.
func TestDecodeRejectsFutureFormatVersion(t *testing.T) {
	s := sample()
	enc := s.Encode()
	// Rebuild by hand with a bumped format version.
	var w Writer
	w.Raw(enc[:8])
	w.U16(FormatVersion + 1)
	w.Raw(enc[8+2 : len(enc)-4])
	body := w.Data()
	var tail Writer
	tail.U32(crc32.ChecksumIEEE(body))
	data := append(body, tail.Data()...)
	if _, err := Decode(data); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("Decode = %v, want ErrFormatVersion", err)
	}
}

// TestFileRoundTripAtomic asserts WriteFile/ReadFile round-trips and
// leaves no temp files behind.
func TestFileRoundTripAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	s := sample()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), s.Encode()) {
		t.Fatal("file round-trip altered the snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the snapshot", len(entries))
	}
	// Reading a corrupt file reports the path.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted garbage")
	}
}

// TestReaderSticky asserts a short read poisons the reader: later calls
// return zero values and Close reports the first error.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64() // short
	if r.Err() == nil {
		t.Fatal("short U64 did not error")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("post-error U32 = %d", v)
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close = nil after error")
	}
	// Unconsumed trailing bytes are an error too.
	r2 := NewReader([]byte{1, 2, 3})
	_ = r2.Byte()
	if err := r2.Close(); err == nil {
		t.Fatal("Close ignored trailing bytes")
	}
	// Hostile slice length: declared far past the buffer.
	var w Writer
	w.U32(1 << 30)
	r3 := NewReader(w.Data())
	if vs := r3.U64s(); vs != nil || r3.Err() == nil {
		t.Fatal("hostile U64s length accepted")
	}
}
