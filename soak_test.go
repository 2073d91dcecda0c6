package blastfunction

import (
	"bytes"
	"runtime"
	"testing"

	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
)

// inlineRoundTrip is one write(inline) -> loopback kernel -> read task
// through the real remote library, rpc transport and Device Manager on a
// loopback socket, with the read-back checked against the payload.
type inlineRoundTrip struct {
	q            ocl.CommandQueue
	k            ocl.Kernel
	in, out      ocl.Buffer
	payload, dst []byte
}

func newInlineRoundTrip(t testing.TB, size int) *inlineRoundTrip {
	_, client := liveRig(t, remote.TransportGRPC)
	_, q, k, in, out := setupCopy(t, client, size)
	for i, arg := range []any{in, out, int32(size)} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}
	rt := &inlineRoundTrip{q: q, k: k, in: in, out: out, payload: make([]byte, size), dst: make([]byte, size)}
	for i := range rt.payload {
		rt.payload[i] = byte(i*31 + i>>8)
	}
	return rt
}

func (rt *inlineRoundTrip) run(t testing.TB) {
	clear(rt.dst)
	if _, err := rt.q.EnqueueWriteBuffer(rt.in, false, 0, rt.payload, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.q.EnqueueTask(rt.k, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.q.EnqueueReadBuffer(rt.out, false, 0, rt.dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.q.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt.dst, rt.payload) {
		t.Fatal("read-back differs from the payload written")
	}
}

// TestInlineSoakHeapStaysFlat holds one connection open for 2,000 1 MiB
// round trips and watches the process, which is what a long-lived Device
// Manager is and what five fresh four-second benchmark replicates are not.
// Each round trip moves two 1 MiB + header frames through wire's pool; when
// the pool retained those frames without ever serving them, every round
// trip allocated 2 MiB and the heap grew for as long as the GC let it.
func TestInlineSoakHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 2,000 1 MiB round trips")
	}
	const (
		trips   = 2000
		quarter = trips / 4
		size    = 1 << 20
	)
	rt := newInlineRoundTrip(t, size)
	rt.run(t) // connection, session and pool classes exist before the first sample

	var ms runtime.MemStats
	var heapSum [4]uint64
	runtime.ReadMemStats(&ms)
	allocStart := ms.TotalAlloc
	for i := 0; i < trips; i++ {
		if i%quarter == 0 {
			// Each quarter starts collected. At a few KiB per round trip the
			// collector would otherwise run about once per soak, and where in
			// the run its one cycle fell would decide the comparison.
			runtime.GC()
		}
		rt.run(t)
		if i%10 == 9 {
			runtime.ReadMemStats(&ms)
			heapSum[i/quarter] += ms.HeapInuse
		}
	}
	runtime.ReadMemStats(&ms)
	perTrip := (ms.TotalAlloc - allocStart) / trips
	first, last := heapSum[0]/(quarter/10), heapSum[3]/(quarter/10)
	t.Logf("%d B allocated per round trip; mean HeapInuse %d KiB in the first quarter, %d KiB in the last",
		perTrip, first>>10, last>>10)

	if perTrip >= 64<<10 {
		t.Errorf("%d B allocated per 1 MiB round trip, want under 64 KiB", perTrip)
	}
	if last > first+first/2 {
		t.Errorf("HeapInuse grew from %d KiB (first quarter) to %d KiB (last quarter), want at most 1.5x",
			first>>10, last>>10)
	}
}

// TestInlineWriteAboveEveryPoolClass sends an 8 MiB inline write: past
// wire's largest class the frame reader grows its buffer as bytes arrive
// instead of trusting the header, and a legitimate large transfer must
// still come through intact.
func TestInlineWriteAboveEveryPoolClass(t *testing.T) {
	newInlineRoundTrip(t, 8<<20).run(t)
}
