package manager_test

import (
	"bytes"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/manager"
	"blastfunction/internal/ocl"
	"blastfunction/internal/wire"
)

// These tests drive the manager with a bare rpc.Client instead of the remote
// library so notification FRAMES are observable: the coalescing contract is
// about what crosses the wire, which the library deliberately hides.

// openSession says Hello at the current protocol revision.
func openSession(t *testing.T, c *rawConn, name string) {
	t.Helper()
	resp, err := hello(t, c, name, wire.ProtoVersion)
	if err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(resp)
}

// unaryCall encodes a request, performs the call and fails the test on error.
func unaryCall(t *testing.T, c *rawConn, m wire.Method, enc func(*wire.Encoder)) []byte {
	t.Helper()
	e := wire.NewEncoder(64)
	if enc != nil {
		enc(e)
	}
	resp, err := c.Call(m, e.Bytes())
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return resp
}

// unaryID is unaryCall for methods answering with an IDResponse.
func unaryID(t *testing.T, c *rawConn, m wire.Method, enc func(*wire.Encoder)) uint64 {
	t.Helper()
	resp := unaryCall(t, c, m, enc)
	var id wire.IDResponse
	id.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	return id.ID
}

// loopbackIDs is the handle set of a ready-to-run copy task.
type loopbackIDs struct {
	queue, in, out, kernel uint64
}

// setupLoopback builds context, queue, two buffers and the configured copy
// kernel over raw unary calls.
func setupLoopback(t *testing.T, c *rawConn, size int) loopbackIDs {
	t.Helper()
	ctx := unaryID(t, c, wire.MethodCreateContext, nil)
	var ids loopbackIDs
	ids.queue = unaryID(t, c, wire.MethodCreateQueue, func(e *wire.Encoder) {
		(&wire.IDRequest{ID: ctx}).Encode(e)
	})
	ids.in = unaryID(t, c, wire.MethodCreateBuffer, func(e *wire.Encoder) {
		(&wire.CreateBufferRequest{Context: ctx, Flags: uint32(ocl.MemReadOnly), Size: int64(size)}).Encode(e)
	})
	ids.out = unaryID(t, c, wire.MethodCreateBuffer, func(e *wire.Encoder) {
		(&wire.CreateBufferRequest{Context: ctx, Flags: uint32(ocl.MemWriteOnly), Size: int64(size)}).Encode(e)
	})
	resp := unaryCall(t, c, wire.MethodCreateProgram, func(e *wire.Encoder) {
		(&wire.CreateProgramRequest{Context: ctx, Binary: accel.LoopbackBitstream().Binary()}).Encode(e)
	})
	var prog wire.CreateProgramResponse
	prog.Decode(wire.NewDecoder(resp))
	wire.PutBuf(resp)
	wire.PutBuf(unaryCall(t, c, wire.MethodBuildProgram, func(e *wire.Encoder) {
		(&wire.IDRequest{ID: prog.ID}).Encode(e)
	}))
	ids.kernel = unaryID(t, c, wire.MethodCreateKernel, func(e *wire.Encoder) {
		(&wire.CreateKernelRequest{Program: prog.ID, Name: "copy"}).Encode(e)
	})
	n, err := ocl.PackArg(int32(size))
	if err != nil {
		t.Fatal(err)
	}
	for i, arg := range []ocl.Arg{ocl.BufferArg(ids.in), ocl.BufferArg(ids.out), n} {
		wire.PutBuf(unaryCall(t, c, wire.MethodSetKernelArg, func(e *wire.Encoder) {
			(&wire.SetKernelArgRequest{Kernel: ids.kernel, Index: uint32(i), Arg: arg}).Encode(e)
		}))
	}
	return ids
}

// sendOp fires one command-queue request (fire-and-forget, like the library).
func sendOp(t *testing.T, c *rawConn, m wire.Method, enc func(*wire.Encoder)) {
	t.Helper()
	e := wire.NewEncoder(64)
	enc(e)
	if err := c.Send(m, e.Bytes()); err != nil {
		t.Fatalf("%v: %v", m, err)
	}
}

// enqueueCopyTask submits the canonical 3-op task — inline write (tag 1),
// kernel launch (tag 2), inline read (tag 3) — and flushes the queue.
func enqueueCopyTask(t *testing.T, c *rawConn, ids loopbackIDs, payload []byte) {
	t.Helper()
	sendOp(t, c, wire.MethodEnqueueWrite, func(e *wire.Encoder) {
		(&wire.EnqueueWriteRequest{Tag: 1, Queue: ids.queue, Buffer: ids.in,
			Via: wire.ViaInline, Data: payload}).Encode(e)
	})
	sendOp(t, c, wire.MethodEnqueueKernel, func(e *wire.Encoder) {
		(&wire.EnqueueKernelRequest{Tag: 2, Queue: ids.queue, Kernel: ids.kernel}).Encode(e)
	})
	sendOp(t, c, wire.MethodEnqueueRead, func(e *wire.Encoder) {
		(&wire.EnqueueReadRequest{Tag: 3, Queue: ids.queue, Buffer: ids.out,
			Length: int64(len(payload)), Via: wire.ViaInline}).Encode(e)
	})
	sendOp(t, c, wire.MethodFlush, func(e *wire.Encoder) {
		(&wire.FlushRequest{Queue: ids.queue}).Encode(e)
	})
}

// nextFrame reads one notification frame and decodes its batch. The
// handler copied the frame out of the read loop's buffer, so the decoded
// Data stays valid.
func nextFrame(t *testing.T, c *rawConn) []wire.OpNotification {
	t.Helper()
	select {
	case payload, ok := <-c.notes:
		if !ok {
			t.Fatal("notification channel closed")
		}
		d := wire.NewDecoder(payload)
		var b wire.OpNotificationBatch
		b.Decode(d)
		if d.Err() != nil || d.Remaining() != 0 {
			t.Fatalf("frame of %d notes: err %v, %d undecoded bytes", len(b.Notes), d.Err(), d.Remaining())
		}
		return b.Notes
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a notification frame")
	}
	return nil
}

// drainTaskFrames reads notification frames until tags 1..3 all reach a
// terminal state and returns every frame.
func drainTaskFrames(t *testing.T, c *rawConn) [][]wire.OpNotification {
	t.Helper()
	terminal := map[uint64]bool{1: false, 2: false, 3: false}
	remaining := len(terminal)
	var frames [][]wire.OpNotification
	for remaining > 0 {
		f := nextFrame(t, c)
		for _, n := range f {
			if n.State == wire.OpComplete || n.State == wire.OpFailed {
				if done, tracked := terminal[n.Tag]; tracked && !done {
					terminal[n.Tag] = true
					remaining--
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// requireCopyResult checks every op completed and the read (tag 3) carried
// the payload back.
func requireCopyResult(t *testing.T, frames [][]wire.OpNotification, payload []byte) {
	t.Helper()
	var readData []byte
	for _, f := range frames {
		for _, n := range f {
			if n.State == wire.OpFailed {
				t.Fatalf("op %d failed: %s", n.Tag, n.Error)
			}
			if n.Tag == 3 && n.State == wire.OpComplete {
				readData = n.Data
			}
		}
	}
	if !bytes.Equal(readData, payload) {
		t.Fatalf("read back %d bytes, want %d matching bytes", len(readData), len(payload))
	}
}

func TestTaskNotificationsCoalesced(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	openSession(t, c, "batch")
	payload := bytes.Repeat([]byte("coalesce"), 512)
	ids := setupLoopback(t, c, len(payload))
	enqueueCopyTask(t, c, ids, payload)
	frames := drainTaskFrames(t, c)

	// Nine notifications (Accepted, Running, Complete per op) in two frames:
	// the Accepted batch at Flush plus one completion batch at task end.
	if len(frames) > 2 {
		t.Fatalf("3-op task emitted %d notification frames, want at most 2", len(frames))
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	if total != 9 {
		t.Errorf("frames carry %d notifications, want all 9", total)
	}
	requireCopyResult(t, frames, payload)
}

// TestReleaseQueueFailsUnflushedOps: Accepted acknowledgements wait for
// flush time, so releasing a queue with unflushed operations must
// terminate those events explicitly — silence would leave the client's
// tags dangling until connection teardown.
func TestReleaseQueueFailsUnflushedOps(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	openSession(t, c, "dropped-queue")
	payload := bytes.Repeat([]byte("drop"), 16)
	ids := setupLoopback(t, c, len(payload))
	sendOp(t, c, wire.MethodEnqueueWrite, func(e *wire.Encoder) {
		(&wire.EnqueueWriteRequest{Tag: 1, Queue: ids.queue, Buffer: ids.in,
			Via: wire.ViaInline, Data: payload}).Encode(e)
	})
	sendOp(t, c, wire.MethodEnqueueKernel, func(e *wire.Encoder) {
		(&wire.EnqueueKernelRequest{Tag: 2, Queue: ids.queue, Kernel: ids.kernel}).Encode(e)
	})
	wire.PutBuf(unaryCall(t, c, wire.MethodReleaseQueue, func(e *wire.Encoder) {
		(&wire.IDRequest{ID: ids.queue}).Encode(e)
	}))

	states := map[uint64]wire.OpState{}
	for len(states) < 2 {
		for _, n := range nextFrame(t, c) {
			states[n.Tag] = n.State
		}
	}
	for tag := uint64(1); tag <= 2; tag++ {
		if states[tag] != wire.OpFailed {
			t.Errorf("tag %d state = %v, want %v", tag, states[tag], wire.OpFailed)
		}
	}
}

// TestFailureOutsideTaskIsBatchOfOne: an operation that cannot join a task
// fails its event through the one notification frame there is, holding a
// batch of one.
func TestFailureOutsideTaskIsBatchOfOne(t *testing.T) {
	rig := newRig(t, manager.Config{})
	c := rawClient(t, rig)
	openSession(t, c, "no-queue")
	sendOp(t, c, wire.MethodEnqueueRead, func(e *wire.Encoder) {
		(&wire.EnqueueReadRequest{Tag: 7, Queue: 999, Buffer: 1, Length: 8}).Encode(e)
	})
	f := nextFrame(t, c)
	if len(f) != 1 {
		t.Fatalf("frame holds %d notifications, want 1", len(f))
	}
	if n := f[0]; n.Tag != 7 || n.State != wire.OpFailed || ocl.Status(n.Status) != ocl.ErrInvalidCommandQueue {
		t.Fatalf("notification = %+v, want tag 7 failed with %v", n, ocl.ErrInvalidCommandQueue)
	}
}
