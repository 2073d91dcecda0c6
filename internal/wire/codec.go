// Package wire implements the binary protocol between the Remote OpenCL
// Library and the Device Manager.
//
// The paper uses gRPC with protobuf messages; Go modules are offline in
// this reproduction, so wire provides the equivalent: a compact, explicit
// little-endian encoding with length-prefixed byte fields, plus the typed
// request/response/notification messages of the Device Manager service.
// Message encoding is hand-rolled rather than reflective both to keep the
// dependency surface at the standard library and to make the serialization
// cost the paper measures an explicit, testable code path.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a decode past the end of the message.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge reports a length field exceeding the configured limit.
var ErrTooLarge = errors.New("wire: field exceeds size limit")

// MaxFieldBytes bounds a single length-prefixed field. Large enough for the
// 2 GB transfers of the paper's Figure 4a sweep plus framing slack.
const MaxFieldBytes = 2<<30 + 4096

// Encoder appends primitive values to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I32 appends a little-endian int32.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bytes32 appends a length-prefixed byte field.
func (e *Encoder) Bytes32(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Raw appends bytes with no length prefix. Used by the vectored-write
// paths to complete a message whose head was encoded with a bare length.
func (e *Encoder) Raw(v []byte) {
	e.buf = append(e.buf, v...)
}

// SetU32 overwrites a little-endian uint32 previously reserved at off —
// the batch encoder patches its notification count this way once the batch
// is sealed.
func (e *Encoder) SetU32(off int, v uint32) {
	binary.LittleEndian.PutUint32(e.buf[off:off+4], v)
}

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Ints appends a count-prefixed slice of ints, each as an int64.
func (e *Encoder) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(v []string) {
	e.U32(uint32(len(v)))
	for _, s := range v {
		e.String(s)
	}
}

// Decoder consumes primitive values from a buffer with a sticky error: the
// first failure poisons all subsequent reads, so call sites check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset rewinds the decoder onto a new buffer, clearing any sticky error.
// Hot loops (the client read loop decoding notification batches) reuse
// one decoder this way instead of allocating per payload.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
	d.err = nil
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the undecoded byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bytes32 reads a length-prefixed byte field. The returned slice aliases
// the decoder's buffer; callers that retain it past the buffer's lifetime
// must copy.
func (d *Decoder) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > MaxFieldBytes {
		d.err = fmt.Errorf("%w: field of %d bytes", ErrTooLarge, n)
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// AppendInts reads a count-prefixed slice of int64 and appends it to dst
// as ints. A caller that keeps dst decodes without allocating.
func (d *Decoder) AppendInts(dst []int) []int {
	n := d.U32()
	if d.err != nil {
		return dst
	}
	if uint64(n)*8 > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: slice of %d int64", ErrTruncated, n)
		return dst
	}
	for ; n > 0; n-- {
		dst = append(dst, int(d.I64()))
	}
	return dst
}

// StringSlice reads a count-prefixed slice of strings.
func (d *Decoder) StringSlice() []string {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: slice of %d strings", ErrTruncated, n)
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}
