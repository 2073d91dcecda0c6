package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Lander says where the Data of one notification goes while its batch is
// still arriving: a slice of at least n bytes, whose first n receive the
// data straight from the stream, or nil (or anything shorter) to keep the
// data in the batch. tag is the notification's Tag. A Lander runs on the
// goroutine reading the stream, before the notification it lands for has
// been decoded by anyone else.
type Lander func(tag uint64, n int) []byte

// Offsets inside an encoded OpNotification head: Tag, State, Status and
// the Error length come first (notePrefix bytes), then the Error bytes,
// then ShmLen, DeviceNanos and the Data length (noteSuffix bytes).
const (
	notePrefix = 8 + 1 + 4 + 4
	noteSuffix = 8 + 8 + 4
)

// streamStart is ReadNotificationBatch's first batch buffer: the heads of
// a few dozen notifications, the pool's smallest class.
const streamStart = poolMin

// ReadNotificationBatch reads one OpNotificationBatch of size bytes from r
// and returns it re-encoded in a pooled buffer the caller owns (release it
// with PutBuf), without the Data it landed. For each notification with
// Data, land decides where the bytes go: into the slice it returns, read
// there directly from r, or (nil, or a nil land) into the returned batch
// as usual. A landed notification's head goes into the batch with a Data
// length of 0, so its decoded Data is empty; everything else in the batch
// is the bytes that arrived.
//
// The batch is bounded like OpNotificationBatch.Decode bounds it: the
// count by the bytes left for minimal notifications, each length field by
// MaxFieldBytes and by the bytes left in the frame; land is asked only for
// data the frame has room for, and writes never go past n bytes of the
// slice it returns. The returned buffer grows with the bytes kept, so a
// frame that claims more than it carries costs a small multiple of what
// arrived.
//
// A malformed batch is reported as an error wrapping ErrTruncated or
// ErrTooLarge after the rest of the frame has been consumed; the returned
// batch then holds the well-formed notifications before the fault. Any
// other error is r's, and the batch is nil: the frame was cut short and
// the stream is out of step.
func ReadNotificationBatch(r io.Reader, size int, land Lander) ([]byte, error) {
	s := batchStream{r: r, left: size, out: GetBuf(streamStart)[:0]}
	derr := s.read(land)
	if s.rerr == nil && s.left > 0 {
		// Trailing bytes (or the rest of a malformed batch) keep the
		// stream in step with the frame.
		s.discard(s.left)
	}
	if s.rerr != nil {
		PutBuf(s.out)
		if s.rerr == io.EOF {
			s.rerr = io.ErrUnexpectedEOF
		}
		return nil, s.rerr
	}
	return s.out, derr
}

// batchStream is the state of one ReadNotificationBatch: rerr is the
// reader's first error, left the frame bytes not yet read.
type batchStream struct {
	r    io.Reader
	left int
	out  []byte
	rerr error
}

// read decodes the batch into s.out, returning the layout error that
// stopped it, if any. A read error stops it too, recorded in s.rerr.
func (s *batchStream) read(land Lander) error {
	if !s.appendN(4) {
		s.out = append(s.out[:0], 0, 0, 0, 0) // an empty batch
		return s.truncated(4)
	}
	count := binary.LittleEndian.Uint32(s.out)
	binary.LittleEndian.PutUint32(s.out, 0) // counts the notifications kept
	if uint64(count) > uint64(s.left)/minEncodedNotificationSize {
		return fmt.Errorf("%w: batch of %d notifications", ErrTruncated, count)
	}
	for i := uint32(0); i < count; i++ {
		start := len(s.out)
		if err := s.note(land); err != nil {
			s.out = s.out[:start]
			return err
		}
		binary.LittleEndian.PutUint32(s.out, i+1)
	}
	return nil
}

// note appends one notification to s.out, landing its Data if land takes
// it.
func (s *batchStream) note(land Lander) error {
	head := len(s.out)
	if !s.appendN(notePrefix) {
		return s.truncated(notePrefix)
	}
	tag := binary.LittleEndian.Uint64(s.out[head:])
	if err := s.field(binary.LittleEndian.Uint32(s.out[head+notePrefix-4:])); err != nil {
		return err
	}
	if !s.appendN(noteSuffix) {
		return s.truncated(noteSuffix)
	}
	lenAt := len(s.out) - 4
	n := binary.LittleEndian.Uint32(s.out[lenAt:])
	if n == 0 {
		return nil
	}
	if err := s.bound(n); err != nil {
		return err
	}
	if land != nil {
		if dst := land(tag, int(n)); len(dst) >= int(n) {
			if !s.fill(dst[:n]) {
				return s.truncated(int(n))
			}
			binary.LittleEndian.PutUint32(s.out[lenAt:], 0)
			return nil
		}
	}
	if !s.appendN(int(n)) {
		return s.truncated(int(n))
	}
	return nil
}

// field appends a length-prefixed field's n bytes to s.out.
func (s *batchStream) field(n uint32) error {
	if err := s.bound(n); err != nil {
		return err
	}
	if !s.appendN(int(n)) {
		return s.truncated(int(n))
	}
	return nil
}

// bound checks a field length the way Decoder.Bytes32 does.
func (s *batchStream) bound(n uint32) error {
	if uint64(n) > MaxFieldBytes {
		return fmt.Errorf("%w: field of %d bytes", ErrTooLarge, n)
	}
	if int(n) > s.left {
		return s.truncated(int(n))
	}
	return nil
}

func (s *batchStream) truncated(n int) error {
	return fmt.Errorf("%w: need %d bytes, %d left in the batch", ErrTruncated, n, s.left)
}

// appendN reads n more frame bytes onto s.out; false if the frame has
// fewer left or the reader fails. The buffer doubles only when the bytes
// already read fill it, so its growth follows what arrived, not n.
func (s *batchStream) appendN(n int) bool {
	if n > s.left {
		return false
	}
	for n > 0 {
		if len(s.out) == cap(s.out) {
			nb := GetBuf(2 * cap(s.out))
			copy(nb, s.out)
			PutBuf(s.out)
			s.out = nb[:len(s.out)]
		}
		k := min(n, cap(s.out)-len(s.out))
		if !s.fill(s.out[len(s.out) : len(s.out)+k]) {
			return false
		}
		s.out = s.out[:len(s.out)+k]
		n -= k
	}
	return true
}

// fill reads len(b) frame bytes into b.
func (s *batchStream) fill(b []byte) bool {
	if len(b) > s.left || s.rerr != nil {
		return false
	}
	n, err := io.ReadFull(s.r, b)
	s.left -= n
	s.rerr = err
	return err == nil
}

// discard skips n frame bytes.
func (s *batchStream) discard(n int) {
	_, s.rerr = io.CopyN(io.Discard, s.r, int64(n))
	s.left -= n
}
