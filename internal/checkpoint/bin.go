// Fixed-width binary encoding helpers shared by every snapshot
// producer. Writer appends little-endian fields to a buffer; Reader is
// its sticky-error inverse: after the first short read every further
// field decodes to the zero value, and the single accumulated error is
// checked once, at Close. Producers therefore serialize whole structs
// without per-field error plumbing while truncation is still always
// detected.

package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends little-endian fields to a growing buffer.
type Writer struct {
	buf []byte
}

// Data returns the accumulated bytes.
func (w *Writer) Data() []byte { return w.buf }

// Raw appends b verbatim, with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Byte appends one byte.
func (w *Writer) Byte(v byte) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// U16 appends a uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 by its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a uint32 length prefix followed by b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// U64s appends a length-prefixed slice of uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Reader decodes a Writer-produced buffer. It is sticky: the first
// failure poisons the reader, later calls return zero values, and Close
// reports the accumulated error (or leftover bytes).
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Close verifies the buffer was consumed exactly: it returns the sticky
// error if any, or an error if trailing bytes remain.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("checkpoint: %d trailing bytes", len(r.data)-r.off)
	}
	return nil
}

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// take returns the next n bytes, or nil after poisoning the reader.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("short read: need %d bytes at offset %d of %d", n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 1:
		return true
	case 0:
		return false
	default:
		r.fail("invalid bool byte")
		return false
	}
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// BytesCopy reads a length-prefixed byte slice into fresh storage.
func (r *Reader) BytesCopy() []byte {
	n := r.U32()
	if n > maxSectionSize {
		r.fail("declared length %d exceeds limit", n)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.BytesCopy()) }

// U64s reads a length-prefixed slice of uint64.
func (r *Reader) U64s() []uint64 {
	n := r.U32()
	if r.err != nil || n == 0 {
		return nil
	}
	if int(n) > len(r.data)/8+1 {
		r.fail("declared slice length %d exceeds buffer", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	if r.err != nil {
		return nil
	}
	return out
}
