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

// Frame types on the wire.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
	frameNotify   byte = 3
	// frameNotifyBatch carries a wire.OpNotificationBatch payload. Only
	// sent to peers that negotiated wire.ProtoVersionBatch or later.
	frameNotifyBatch byte = 4
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

// smallFrameMax is the cut-over between the copy path and the vectored
// path. Below it, copying the segments into one buffer and issuing a single
// Write is cheaper than a writev; above it, the copy itself is the cost the
// vectored path exists to avoid.
const smallFrameMax = 4 << 10

// frameWriter assembles and writes frames without concatenating payloads.
// It is not safe for concurrent use; callers serialize through their write
// lock. The hdr, small and vec fields are per-writer scratch so
// steady-state writes allocate nothing.
type frameWriter struct {
	w     io.Writer
	hdr   [headerLen]byte
	small [headerLen + smallFrameMax]byte // coalescing buffer of the small-frame path
	vec   net.Buffers
}

// writeFrame writes one frame whose payload is the concatenation of segs.
// Small frames are coalesced into the writer's scratch buffer (one syscall
// for control traffic); larger frames go out as a vectored write (writev on
// TCP), so payload bytes are never copied into a combined buffer. Segments
// are not retained past the call.
func (fw *frameWriter) writeFrame(typ byte, segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	binary.LittleEndian.PutUint32(fw.hdr[:4], uint32(total))
	fw.hdr[4] = typ
	if total <= smallFrameMax {
		buf := append(fw.small[:0], fw.hdr[:]...)
		for _, s := range segs {
			buf = append(buf, s...)
		}
		_, err := fw.w.Write(buf)
		return err
	}
	vec := append(fw.vec[:0], fw.hdr[:])
	for _, s := range segs {
		if len(s) > 0 {
			vec = append(vec, s)
		}
	}
	// WriteTo advances (and nils out) the entries of the slice it is
	// invoked on, so hand it a separate header while keeping vec's backing
	// array as reusable scratch. The nil-out also means no payload slice
	// stays pinned by the scratch between frames.
	fw.vec = vec[:0]
	wr := vec
	_, err := (&wr).WriteTo(fw.w)
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
	hdr, err := r.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	typ = hdr[4]
	if n > limit {
		return 0, nil, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, n, limit)
	}
	r.Discard(headerLen) // cannot fail: Peek buffered these bytes
	if payload, err = wire.ReadBuf(r, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}
