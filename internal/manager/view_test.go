package manager_test

import (
	"bytes"
	"testing"

	"blastfunction/internal/manager"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
)

// A task's completion batch leaves after all of its operations have run,
// so an inline read sent straight from board memory would show what the
// rest of its task wrote. A read must return the bytes of its own turn:
// a read followed in its task by a write, or by a kernel, that changes the
// same buffer still returns the bytes from before them; a read that ends
// its task returns what the ops before it made. Both transfer sizes run:
// one small enough for the client's buffered reader, one streamed.
func TestInlineReadReturnsBytesOfItsTurn(t *testing.T) {
	rig := newRig(t, manager.Config{DeviceID: "fpga0"})
	client := dialRig(t, rig, remote.TransportGRPC, "aliasing")
	ctx, dev, q := openDevice(t, client)
	k := buildLoopback(t, ctx, dev)
	for _, size := range []int{1 << 10, 64 << 10} {
		in, err := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.CreateBuffer(ocl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, arg := range []any{in, out, int32(size)} {
			if err := k.SetArg(i, arg); err != nil {
				t.Fatal(err)
			}
		}
		fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
		write := func(b ocl.Buffer, data []byte) {
			if _, err := q.EnqueueWriteBuffer(b, false, 0, data, nil); err != nil {
				t.Fatal(err)
			}
		}
		kernel := func() {
			if _, err := q.EnqueueTask(k, nil); err != nil {
				t.Fatal(err)
			}
		}
		read := func(b ocl.Buffer) []byte {
			dst := make([]byte, size)
			if _, err := q.EnqueueReadBuffer(b, false, 0, dst, nil); err != nil {
				t.Fatal(err)
			}
			return dst
		}
		finish := func() {
			if err := q.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		check := func(task string, got []byte, want byte) {
			if !bytes.Equal(got, fill(want)) {
				t.Fatalf("%d bytes, task %s: read returned 0x%02x..., want 0x%02x", size, task, got[0], want)
			}
		}

		write(in, fill(0xA1)) // out = A1
		kernel()
		finish()

		got := read(out) // then out = B2 in the same task
		write(out, fill(0xB2))
		finish()
		check("read(out) -> write(out)", got, 0xA1)

		write(in, fill(0xC3))
		got = read(out) // then the kernel makes out = C3
		kernel()
		finish()
		check("write(in) -> read(out) -> kernel(in->out)", got, 0xB2)

		write(in, fill(0xD4))
		kernel()
		got = read(out)
		finish()
		check("write(in) -> kernel(in->out) -> read(out)", got, 0xD4)

		in.Release()
		out.Release()
	}
}
