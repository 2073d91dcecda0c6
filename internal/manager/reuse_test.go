package manager_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"blastfunction/internal/manager"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
)

// Integration tests for the data-plane reuse layer: the content-addressed
// buffer cache and zero-copy chaining, both exercised through real clients
// over real TCP.

// dialReuse is dialRig with control over the client's content-cache knob.
func dialReuse(t *testing.T, rig *testRig, name string, disableCache bool) *remote.Client {
	t.Helper()
	client, err := remote.Dial(remote.Config{
		ClientName:          name,
		Managers:            []string{rig.addr},
		Transport:           remote.TransportGRPC,
		DisableContentCache: disableCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// weights builds a deterministic CNN-weights-like payload.
func weights(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	return p
}

func TestContentCacheSharesUploadsAcrossSessions(t *testing.T) {
	rig := newRig(t, manager.Config{})
	const size = 64 << 10
	payload := weights(size)

	base := rig.board.Stats().BytesIn
	cA := dialReuse(t, rig, "reuse-a", false)
	ctxA, _, qA := openDevice(t, cA)
	bufA, err := ctxA.CreateBuffer(ocl.MemReadOnly, size, payload)
	if err != nil {
		t.Fatal(err)
	}
	afterA := rig.board.Stats().BytesIn
	if got := afterA - base; got != size {
		t.Fatalf("first create moved %d bytes to the board, want %d", got, size)
	}

	// A second session with the same content: the create must be
	// metadata-only — zero payload bytes reach the board.
	cB := dialReuse(t, rig, "reuse-b", false)
	ctxB, devB, qB := openDevice(t, cB)
	bufB, err := ctxB.CreateBuffer(ocl.MemReadOnly, size, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := rig.board.Stats().BytesIn - afterA; got != 0 {
		t.Fatalf("repeated create moved %d bytes to the board, want 0", got)
	}
	st := rig.mgr.CacheStats()
	if st.BufferCache.Hits != 1 || st.BufferCache.BytesSaved != size {
		t.Fatalf("cache stats = %+v, want 1 hit saving %d bytes", st.BufferCache, size)
	}
	// The hit/miss counters are on the /metrics surface too.
	text := rig.mgr.Metrics().Render()
	for _, want := range []string{
		`bf_bufcache_hits_total{device="fpga0",node="testnode"} 1`,
		`bf_bufcache_misses_total{device="fpga0",node="testnode"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The shared handle must behave like a private one: kernels read the
	// cached bytes.
	k := buildLoopback(t, ctxB, devB)
	out, err := ctxB.CreateBuffer(ocl.MemWriteOnly, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.SetArg(0, bufB)
	k.SetArg(1, out)
	k.SetArg(2, int32(size))
	if _, err := qB.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := qB.EnqueueReadBuffer(out, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("kernel did not see the cached content")
	}

	// Shared handles are immutable: writes are rejected with a typed
	// error on both sessions' handles.
	if _, err := qA.EnqueueWriteBuffer(bufA, true, 0, []byte{1}, nil); !errors.Is(err, ocl.ErrInvalidOperation) {
		t.Fatalf("write to shared buffer err = %v, want ErrInvalidOperation", err)
	}
	if _, err := qB.EnqueueWriteBuffer(bufB, true, 0, []byte{1}, nil); !errors.Is(err, ocl.ErrInvalidOperation) {
		t.Fatalf("write to shared buffer err = %v, want ErrInvalidOperation", err)
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := dialReuse(t, rig, "cache-http", false)
	ctx, _, _ := openDevice(t, c)
	const size = 4 << 10
	if _, err := ctx.CreateBuffer(ocl.MemReadOnly, size, weights(size)); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rig.mgr.CacheStatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cache", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var got struct {
		BufferCache struct {
			Entries       int   `json:"entries"`
			ResidentBytes int64 `json:"resident_bytes"`
		} `json:"buffer_cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if got.BufferCache.Entries != 1 || got.BufferCache.ResidentBytes != size {
		t.Fatalf("snapshot = %+v, want 1 entry / %d bytes", got, size)
	}
}

func TestContentCacheEntrySurvivesRelease(t *testing.T) {
	rig := newRig(t, manager.Config{})
	const size = 16 << 10
	payload := weights(size)
	c := dialReuse(t, rig, "reuse-rel", false)
	ctx, _, _ := openDevice(t, c)

	buf, err := ctx.CreateBuffer(ocl.MemReadOnly, size, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Release(); err != nil {
		t.Fatal(err)
	}
	// The entry stays resident at zero references — that IS the reuse.
	// A later create by the same content must still hit.
	afterRelease := rig.board.Stats().BytesIn
	if _, err := ctx.CreateBuffer(ocl.MemReadOnly, size, payload); err != nil {
		t.Fatal(err)
	}
	if got := rig.board.Stats().BytesIn - afterRelease; got != 0 {
		t.Fatalf("create after release moved %d bytes, want 0 (cache hit)", got)
	}
	st := rig.mgr.CacheStats().BufferCache
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

func TestContentCacheDisabledManagerStaysCorrect(t *testing.T) {
	// A manager with the cache disabled must answer probes "miss" and
	// serve hashed uploads as plain private buffers — never hand out an
	// uninitialized buffer for a probe.
	rig := newRig(t, manager.Config{BufferCacheBytes: -1})
	const size = 8 << 10
	payload := weights(size)
	c := dialReuse(t, rig, "reuse-nocache", false)
	ctx, dev, q := openDevice(t, c)

	in, err := ctx.CreateBuffer(ocl.MemReadOnly, size, payload)
	if err != nil {
		t.Fatal(err)
	}
	k := buildLoopback(t, ctx, dev)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, size, nil)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(size))
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := q.EnqueueReadBuffer(out, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("content lost when the manager cache is disabled")
	}
}

func TestContentCacheClientOptOutUploadsEveryTime(t *testing.T) {
	rig := newRig(t, manager.Config{})
	const size = 8 << 10
	payload := weights(size)
	base := rig.board.Stats().BytesIn
	for i, name := range []string{"optout-1", "optout-2"} {
		c := dialReuse(t, rig, name, true)
		ctx, _, _ := openDevice(t, c)
		if _, err := ctx.CreateBuffer(ocl.MemReadOnly, size, payload); err != nil {
			t.Fatal(err)
		}
		want := int64(size) * int64(i+1)
		if got := rig.board.Stats().BytesIn - base; got != want {
			t.Fatalf("after create %d: %d bytes moved, want %d", i+1, got, want)
		}
	}
	if st := rig.mgr.CacheStats().BufferCache; st.Hits != 0 {
		t.Fatalf("opted-out clients produced %d cache hits", st.Hits)
	}
}

func TestZeroCopyChainingMovesNoIntermediates(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := dialReuse(t, rig, "chain", false)
	ctx, dev, q := openDevice(t, c)
	k := buildLoopback(t, ctx, dev)
	const size = 32 << 10
	payload := weights(size)

	in, _ := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	mid, _ := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	mid2, _ := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	out, _ := ctx.CreateBuffer(ocl.MemWriteOnly, size, nil)

	base := rig.board.Stats()
	if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
		t.Fatal(err)
	}
	// Stage 1: kernel in -> mid.
	k.SetArg(0, in)
	k.SetArg(1, mid)
	k.SetArg(2, int32(size))
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	// The chaining hop: mid -> mid2 entirely on the device.
	if _, err := q.EnqueueCopyBuffer(mid, mid2, 0, 0, size, nil); err != nil {
		t.Fatal(err)
	}
	// Stage 2: kernel mid2 -> out.
	k.SetArg(0, mid2)
	k.SetArg(1, out)
	k.SetArg(2, int32(size))
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := q.EnqueueReadBuffer(out, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chained pipeline corrupted the payload")
	}

	// The zero-copy property: exactly one client write in, one client
	// read out — the intermediate moved only over on-board DDR.
	st := rig.board.Stats()
	if gotIn := st.BytesIn - base.BytesIn; gotIn != size {
		t.Fatalf("pipeline moved %d bytes client->board, want %d", gotIn, size)
	}
	if gotOut := st.BytesOut - base.BytesOut; gotOut != size {
		t.Fatalf("pipeline moved %d bytes board->client, want %d", gotOut, size)
	}
	if st.CopyOps-base.CopyOps != 1 || st.CopyBytes-base.CopyBytes != size {
		t.Fatalf("copy counters moved by %d ops / %d bytes, want 1 / %d",
			st.CopyOps-base.CopyOps, st.CopyBytes-base.CopyBytes, size)
	}
}

func TestEnqueueCopyValidationAndSharedDst(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := dialReuse(t, rig, "chain-edge", false)
	ctx, _, q := openDevice(t, c)
	const size = 1 << 10
	a, _ := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	b, _ := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
	if _, err := q.EnqueueCopyBuffer(a, b, size-1, 0, 2, nil); !errors.Is(err, ocl.ErrInvalidValue) {
		t.Fatalf("out-of-range copy err = %v", err)
	}
	shared, err := ctx.CreateBuffer(ocl.MemReadOnly, size, weights(size))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCopyBuffer(a, shared, 0, 0, size, nil); !errors.Is(err, ocl.ErrInvalidOperation) {
		t.Fatalf("copy into shared buffer err = %v", err)
	}
	// Copying OUT of a shared buffer is fine — that is the cached-weights
	// fan-out path.
	if _, err := q.EnqueueCopyBuffer(shared, a, 0, 0, size, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := q.EnqueueReadBuffer(a, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, weights(size)) {
		t.Fatal("copy out of shared buffer produced wrong bytes")
	}
}
