package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"blastfunction/internal/wire"
)

// Frame types on the wire; 3 is unassigned, and a peer sending it is
// dropped like any other unknown type.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
	frameNotify   byte = 4
)

// MaxFrameBytes bounds one frame: large enough for the 2 GB inline
// transfers of the Figure 4a sweep.
const MaxFrameBytes = 2<<30 + 1<<20

// preSessionFrameMax bounds a frame from a peer the handler has not yet
// attached a session to (Conn.Session() == nil; for the Device Manager,
// before Hello). A Hello is a name and two integers: a stranger gets to
// make the server hold a few KiB, not MaxFrameBytes.
const preSessionFrameMax = 4 << 10

// ErrFrameTooLarge reports an oversized frame on the wire.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")

// header: 4-byte little-endian payload length + 1-byte frame type.
const headerLen = 5

// smallFrameMax is the cut-over between copying and vectoring. Below it,
// copying a frame's segments into one buffer is cheaper than gathering them
// in a writev; above it, the copy itself is the cost the vectored path
// exists to avoid. It also bounds the frames a writer delays.
const smallFrameMax = 4 << 10

// frameWriter assembles and writes frames without concatenating large
// payloads. It is not safe for concurrent use; callers serialize through
// their write lock. buf and vec are per-writer scratch so steady-state
// writes allocate nothing.
type frameWriter struct {
	w io.Writer
	// buf[:held] are the delayed frames; the frame being written is copied
	// in behind them as far as it fits. Room for two small frames: delayed
	// bytes and the small frame that sends them are one Write.
	buf  [2 * (headerLen + smallFrameMax)]byte
	held int
	vec  net.Buffers
}

// writeFrame writes one frame whose payload is head followed by segs,
// behind the frames delayed so far, as described under "Write path" in
// doc.go; with delay set, a small frame may only be copied to wait for the
// next. Segments are not retained past the call.
func (fw *frameWriter) writeFrame(delay bool, typ byte, head []byte, segs ...[]byte) error {
	total := len(head)
	for _, s := range segs {
		total += len(s)
	}
	buf := binary.LittleEndian.AppendUint32(fw.buf[:fw.held], uint32(total))
	buf = append(append(buf, typ), head...)
	vec, from := fw.vec[:0], 0
	for _, s := range segs {
		if len(buf)+len(s) <= cap(buf) {
			buf = append(buf, s...)
			continue
		}
		vec = append(vec, buf[from:], s)
		from = len(buf)
	}
	if delay && len(vec) == 0 && len(buf) <= headerLen+smallFrameMax {
		fw.held = len(buf)
		return nil
	}
	fw.held = 0
	if from < len(buf) {
		vec = append(vec, buf[from:])
	}
	// WriteTo advances (and nils out) the entries of the slice it is
	// invoked on: run it on the field, which keeps the local vec from
	// escaping, then keep vec's backing array as reusable scratch. The
	// nil-out also means no payload slice stays pinned between frames.
	fw.vec = vec
	_, err := fw.vec.WriteTo(fw.w)
	fw.vec = vec[:0]
	return err
}

// newFrameReader returns the buffered reader a connection's read loop pulls
// frames through. It is sized so that any frame the peer's writer coalesced
// into one Write can arrive in one Read, header and payload together.
func newFrameReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, headerLen+smallFrameMax)
}

// readFrame reads one frame of at most limit payload bytes into a pooled
// buffer. Whatever part of the payload the buffered reader already holds is
// copied out of it; the rest of a large payload is read from the connection
// straight into the pooled buffer (bufio bypasses its buffer for reads at
// least as large). A header that claims more than limit is refused before
// anything is allocated; see wire.ReadBuf for how much a claim within the
// limit is trusted.
//
// Ownership of payload passes to the caller, who releases that same slice
// with wire.PutBuf (directly or via the hand-off points described in
// doc.go) once decoded values that alias it are dead.
func readFrame(r *bufio.Reader, limit int) (typ byte, payload []byte, err error) {
	typ, n, err := readHeader(r, limit)
	if err != nil {
		return 0, nil, err
	}
	if payload, err = readPayload(r, n); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readHeader reads one frame header and returns the frame's type and
// payload length, refusing a length past limit; the payload is next on r.
func readHeader(r *bufio.Reader, limit int) (typ byte, n int, err error) {
	hdr, err := r.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	n = int(binary.LittleEndian.Uint32(hdr[:4]))
	typ = hdr[4]
	if n > limit {
		return 0, 0, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, n, limit)
	}
	r.Discard(headerLen) // cannot fail: Peek buffered these bytes
	return typ, n, nil
}

// readPayload reads a frame's n payload bytes into a pooled buffer.
func readPayload(r *bufio.Reader, n int) ([]byte, error) {
	payload, err := wire.ReadBuf(r, n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return payload, err
}
