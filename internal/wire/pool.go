package wire

import (
	"io"
	"math/bits"
	"sync"
)

// Buffer pooling for the transport hot path. Frame payloads, encoder
// buffers and read staging buffers cycle through size classes instead of
// being allocated per message — the allocation half of the copy/allocation
// overhead the paper attributes to the gRPC data path.
//
// The pool serves what it keeps: GetBuf(n) draws from the smallest class
// whose size covers n and allocates exactly that size on a miss; PutBuf
// files a buffer under the largest class its capacity covers. Every size
// up to poolRetainMax therefore has a class on both sides, and a buffer
// that came from GetBuf goes back to the class that will serve the same
// request again. Classes step by quarter octaves (4, 5, 6, 7, 8, 10, ...
// KiB), so the usual "power-of-two payload plus a frame header" costs a
// quarter more than it needs, not double.
//
// Ownership is explicit: a buffer obtained from GetBuf (directly or behind
// ReadBuf, rpc's frame reader or GetEncoder) has exactly one owner at a
// time, and the owner either passes it on (documented at each hand-off
// point) or returns it with PutBuf. What is returned is the slice that was
// handed out, re-sliced in length at most — never a header-stripped alias:
// b[k:] has a smaller capacity, so releasing it would shrink the buffer a
// little on every cycle until it dropped a class. Because owners keep the
// original slice next to whatever view they decode from it, classes carry
// no slack.

const (
	// poolMin is the smallest class: smaller buffers are not worth a pool
	// round trip.
	poolMin = 4 << 10
	// poolRetainMax is the largest class. Bigger buffers are plain
	// allocations that PutBuf drops, so a one-off giant frame cannot pin
	// its memory in the pool.
	poolRetainMax = 4 << 20
)

// poolClass returns the index of the largest class whose size is at most x,
// for poolMin <= x <= poolRetainMax.
func poolClass(x int) int {
	s := bits.Len(uint(x)) - 3 // x>>s is 4..7: the class's quarter within its octave
	return (s-10)*4 + x>>s - 4
}

// poolClassSize is poolClass's inverse on class boundaries.
func poolClassSize(class int) int { return (4 + class%4) << (10 + class/4) }

// bufPools holds *[]byte so steady-state Get/Put stays allocation-free;
// headerPool recycles the slice headers themselves.
var bufPools [4*10 + 1]sync.Pool // ten octaves of four classes, and poolRetainMax itself

var headerPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns a buffer of length n backed by the pool. Buffers larger
// than poolRetainMax are plain allocations.
func GetBuf(n int) []byte {
	if n <= 0 {
		return []byte{}
	}
	if n > poolRetainMax {
		return make([]byte, n)
	}
	class := 0
	if n > poolMin {
		class = poolClass(n-1) + 1 // smallest class that covers n
	}
	// Every buffer filed under the class has cap >= its size >= n.
	if b := kept.pop(class); b != nil {
		return b[:n]
	}
	if h, _ := bufPools[class].Get().(*[]byte); h != nil {
		b := *h
		*h = nil
		headerPool.Put(h)
		return b[:n]
	}
	return make([]byte, n, poolClassSize(class))
}

// PutBuf returns a buffer to the pool. The caller must not touch b (or any
// slice aliasing it) afterwards. Buffers below the smallest class or above
// poolRetainMax are dropped.
func PutBuf(b []byte) {
	c := cap(b)
	if c < poolMin || c > poolRetainMax {
		return
	}
	class := poolClass(c)
	if kept.push(class, b[:0:c]) {
		return
	}
	h := headerPool.Get().(*[]byte)
	*h = b[:0:c]
	bufPools[class].Put(h)
}

// kept is the part of the large classes that outlives garbage collections.
// sync.Pool forgets a buffer after two collections without use, which suits
// small buffers and is wrong for large ones: a fresh MiB is 256 page faults
// before it holds a byte (0.6 ms on the VMs this runs on, about half of a
// whole 1 MiB round trip), so the first requests after any quiet spell
// would pay more for memory than for the wire. A class from keepMinClass up
// therefore keeps its buffers here first, within keepBytes for all classes
// together, and only what does not fit goes to the sync.Pool for the
// collector to trim. keepBytes also bounds what stale one-off sizes can
// pin; a full budget degrades to the sync.Pool behaviour, nothing worse.
const (
	keepMinClass = 16 // 64 KiB
	keepBytes    = 16 << 20
)

var kept keepList

type keepList struct {
	mu    sync.Mutex
	bytes int
	free  [len(bufPools)][][]byte
}

func (k *keepList) pop(class int) []byte {
	if class < keepMinClass {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.free[class]
	if len(l) == 0 {
		return nil
	}
	b := l[len(l)-1]
	l[len(l)-1] = nil
	k.free[class] = l[:len(l)-1]
	k.bytes -= cap(b)
	return b
}

func (k *keepList) push(class int, b []byte) bool {
	if class < keepMinClass {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.bytes+cap(b) > keepBytes {
		return false
	}
	k.bytes += cap(b)
	k.free[class] = append(k.free[class], b)
	return true
}

// readGrowStart is ReadBuf's first buffer for a length the pool does not
// cover.
const readGrowStart = 64 << 10

// ReadBuf reads exactly n bytes from r into a pooled buffer the caller
// owns. Up to poolRetainMax the buffer is sized from n at once, so the
// bytes land in place with no further copy. Beyond that n is only a claim
// (on the wire: five bytes of header from a peer that may never send the
// rest), so the buffer doubles as bytes actually arrive and a short stream
// costs a small multiple of what it delivered.
func ReadBuf(r io.Reader, n int) ([]byte, error) {
	size := n
	if n > poolRetainMax {
		size = readGrowStart
	}
	b := GetBuf(size)
	got := 0
	for {
		m, err := io.ReadFull(r, b[got:])
		got += m
		if err != nil {
			PutBuf(b)
			return nil, err
		}
		if got == n {
			return b, nil
		}
		next := 2 * got
		if n-next <= next/8 {
			// Also the usual "power-of-two payload plus a header": finish
			// in this step rather than reallocating again for the header.
			next = n
		}
		nb := GetBuf(next)
		copy(nb, b)
		PutBuf(b)
		b = nb
	}
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled encoder whose buffer comes from the buffer
// pool. Pair it with Release (buffer returns to the pool) or Detach
// (buffer ownership transfers to the caller).
func GetEncoder(sizeHint int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	if sizeHint < 64 {
		sizeHint = 64
	}
	e.buf = GetBuf(sizeHint)[:0]
	return e
}

// Release recycles the encoder and its buffer. The caller must be done
// with every slice previously returned by Bytes.
func (e *Encoder) Release() {
	PutBuf(e.buf)
	e.buf = nil
	encoderPool.Put(e)
}

// Detach returns the encoded bytes, transferring their ownership to the
// caller (who should eventually PutBuf them), and recycles the encoder
// itself.
func (e *Encoder) Detach() []byte {
	b := e.buf
	e.buf = nil
	encoderPool.Put(e)
	return b
}
