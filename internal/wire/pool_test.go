package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// poolProbeSizes straddle every boundary the classes have: the smallest
// class, a class edge on both sides, the old top class plus a frame header
// (the size the pool used to retain and never serve), the retain limit.
var poolProbeSizes = []int{1, 4<<10 - 1, 4 << 10, 4<<10 + 1, 64<<10 + 1, 1 << 20, 1<<20 + 1, 1<<20 + 64, 4 << 20, 4<<20 + 1}

func TestGetBufLenAndCap(t *testing.T) {
	if got := GetBuf(0); len(got) != 0 {
		t.Fatalf("GetBuf(0) len = %d", len(got))
	}
	for _, n := range poolProbeSizes {
		b := GetBuf(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b), cap(b))
		}
		PutBuf(b)
	}
}

// servedAgain reports whether a buffer released with PutBuf comes back from
// the next GetBuf of the same size. Below the kept classes that is up to
// sync.Pool, which may drop an entry (a GC between the two calls; one Put in
// four under the race detector), so it probes a few times.
func servedAgain(n int) bool {
	for i := 0; i < 32; i++ {
		b := GetBuf(n)
		PutBuf(b)
		c := GetBuf(n)
		same := &c[0] == &b[0]
		PutBuf(c)
		if same {
			return true
		}
	}
	return false
}

func TestPoolServesWhatItKeeps(t *testing.T) {
	for _, n := range poolProbeSizes {
		if got, want := servedAgain(n), n <= poolRetainMax; got != want {
			t.Errorf("size %d: served again = %v, want %v", n, got, want)
		}
	}
}

func TestPutBufFilesForeignBuffersByCapacity(t *testing.T) {
	// A buffer the pool did not allocate (an encoder that outgrew its
	// pooled buffer through append) is filed under the largest class it
	// covers, so whatever that class hands out still fits.
	for i := 0; i < 32; i++ {
		PutBuf(make([]byte, 0, 9<<10)) // covers the 8 KiB class, not 10 KiB
		b := GetBuf(8 << 10)
		if len(b) != 8<<10 {
			t.Fatalf("len = %d", len(b))
		}
		c := GetBuf(10 << 10)
		if cap(c) < 10<<10 {
			t.Fatalf("10 KiB request served from a %d-byte buffer", cap(c))
		}
		PutBuf(b)
		PutBuf(c)
	}
	PutBuf(make([]byte, 100)) // below the smallest class: dropped, harmless
}

// TestGetBufLargeFrameDoesNotAllocate is the in-repo mirror of bfbench's
// wire.getbuf_1m_kib_per_op: a 1 MiB payload plus its frame header used to
// miss every class on Get (1032 KiB allocated per pair) while Put retained
// each one.
func TestGetBufLargeFrameDoesNotAllocate(t *testing.T) {
	const pairs = 1000
	PutBuf(GetBuf(1<<20 + 64)) // the one allocation a cold class costs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		PutBuf(GetBuf(1<<20 + 64))
	}
	runtime.ReadMemStats(&after)
	if perPair := (after.TotalAlloc - before.TotalAlloc) / pairs; perPair >= 1<<10 {
		t.Fatalf("GetBuf(1 MiB + 64)/PutBuf allocates %d bytes per pair, want under 1 KiB", perPair)
	}
}

func TestReadBuf(t *testing.T) {
	src := make([]byte, 9<<20)
	for i := range src {
		src[i] = byte(i * 7)
	}
	for _, n := range []int{0, 1, 5000, 1<<20 + 64, poolRetainMax, poolRetainMax + 1, len(src)} {
		// iotest-style one-chunk-at-a-time reader: ReadBuf must loop.
		b, err := ReadBuf(&chunkReader{data: src[:n], chunk: 70000}, n)
		if err != nil || !bytes.Equal(b, src[:n]) {
			t.Fatalf("ReadBuf(%d): err %v, %d bytes", n, err, len(b))
		}
		PutBuf(b)
	}
}

func TestReadBufShortStreamCostsWhatItDelivered(t *testing.T) {
	// A claimed gigabyte backed by ten bytes must not allocate a gigabyte.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := ReadBuf(bytes.NewReader(make([]byte, 10)), 1<<30)
	runtime.ReadMemStats(&after)
	if b != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %d bytes, err %v", len(b), err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 2*readGrowStart {
		t.Fatalf("allocated %d bytes for a 10-byte stream", d)
	}
}

type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestEncoderDetachTransfersOwnership(t *testing.T) {
	e := GetEncoder(16)
	e.U64(42)
	b := e.Detach()
	if len(b) != 8 {
		t.Fatalf("detached len = %d", len(b))
	}
	// The encoder is recycled; a fresh Get must not resurrect b's bytes.
	e2 := GetEncoder(16)
	e2.U64(7)
	if got := e2.Bytes(); len(got) != 8 {
		t.Fatalf("recycled encoder len = %d", len(got))
	}
	e2.Release()
	PutBuf(b)
}

func BenchmarkEncoderPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder(64)
		e.U64(uint64(i))
		e.U8(3)
		e.I32(0)
		e.String("")
		e.I64(0)
		e.I64(12345)
		e.U32(0)
		e.Release()
	}
}

func BenchmarkEncoderUnpooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEncoder(64)
		e.U64(uint64(i))
		e.U8(3)
		e.I32(0)
		e.String("")
		e.I64(0)
		e.I64(12345)
		e.U32(0)
		_ = e.Bytes()
	}
}

func TestPoolClassMath(t *testing.T) {
	// Sizes ascend; poolClass floors onto them, which is what makes PutBuf
	// file a buffer GetBuf allocated under the class GetBuf draws from.
	for class := range bufPools {
		size := poolClassSize(class)
		if got := poolClass(size); got != class {
			t.Fatalf("poolClass(%d) = %d, want %d", size, got, class)
		}
		if class > 0 {
			if prev := poolClassSize(class - 1); prev >= size || size-prev > prev/4 {
				t.Fatalf("class %d is %d bytes after %d: want ascending quarter-octave steps", class, size, prev)
			}
			if got := poolClass(size - 1); got != class-1 {
				t.Fatalf("poolClass(%d) = %d, want %d", size-1, got, class-1)
			}
		}
	}
	if poolClassSize(0) != poolMin || poolClassSize(len(bufPools)-1) != poolRetainMax {
		t.Fatalf("classes span %d..%d, want %d..%d", poolClassSize(0), poolClassSize(len(bufPools)-1), poolMin, poolRetainMax)
	}
}

func TestLargeBuffersOutliveCollections(t *testing.T) {
	kept = keepList{} // earlier tests may have spent the budget on other sizes
	b := GetBuf(1<<20 + 64)
	first := &b[0]
	PutBuf(b)
	for i := 0; i < 3; i++ {
		runtime.GC() // sync.Pool alone forgets the buffer after the second
	}
	c := GetBuf(1<<20 + 64)
	if &c[0] != first {
		t.Fatal("a 1 MiB frame buffer did not survive three collections in the pool")
	}
	PutBuf(c)
}

func TestKeptBytesAreBounded(t *testing.T) {
	kept = keepList{}
	var bufs [][]byte
	for i := 0; i < 2*keepBytes/(1<<20); i++ {
		bufs = append(bufs, GetBuf(1<<20))
	}
	for _, b := range bufs {
		PutBuf(b) // what does not fit falls through to the sync.Pool
	}
	if kept.bytes > keepBytes || kept.bytes < keepBytes-(1<<20) {
		t.Fatalf("kept %d bytes of %d released, budget %d", kept.bytes, len(bufs)<<20, keepBytes)
	}
	kept = keepList{}
}
