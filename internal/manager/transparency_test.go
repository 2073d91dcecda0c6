package manager_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/native"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
)

// errKind is the ocl sentinel err matches under errors.Is: Success for
// nil, CL_UNKNOWN_STATUS(1) for an error that matches no ocl status.
func errKind(err error) ocl.Status {
	if s := ocl.StatusOf(err); err == nil || errors.Is(err, s) {
		return s
	}
	return 1
}

// programRun is one program's run on one backend. It records, in program
// order, each enqueue's event (or the kind of its error), the kind of each
// blocking call's error, and each read with the bytes it must hold.
type programRun struct {
	t   *testing.T
	ctx ocl.Context
	dev ocl.Device
	q   ocl.CommandQueue
	k   ocl.Kernel

	events []ocl.Event
	log    []string // "enqueue <kind>", "call <kind>", "event <i>"
	reads  [][]byte
	want   [][]byte
	bufs   []ocl.Buffer
}

func (r *programRun) buffer(n int) ocl.Buffer {
	r.t.Helper()
	b, err := r.ctx.CreateBuffer(ocl.MemReadWrite, n, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.bufs = append(r.bufs, b)
	return b
}

func (r *programRun) queue() ocl.CommandQueue {
	r.t.Helper()
	q, err := r.ctx.CreateCommandQueue(r.dev, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	return q
}

// read returns a destination of n bytes whose content must end as want.
func (r *programRun) read(n int, want []byte) []byte {
	dst := make([]byte, n)
	r.reads, r.want = append(r.reads, dst), append(r.want, want)
	return dst
}

// op records an enqueue and returns its event (nil when it failed).
func (r *programRun) op(ev ocl.Event, err error) ocl.Event {
	if err != nil {
		r.log = append(r.log, fmt.Sprintf("enqueue %v", errKind(err)))
	}
	if ev != nil {
		r.log = append(r.log, fmt.Sprintf("event %d", len(r.events)))
		r.events = append(r.events, ev)
	}
	return ev
}

func (r *programRun) call(err error) { r.log = append(r.log, fmt.Sprintf("call %v", errKind(err))) }

func (r *programRun) wait(ev ocl.Event) {
	if ev != nil {
		r.call(ev.Wait())
	}
}

// outcome is what the run observed once every event ended: its log, then
// each event's final status and error kind.
func (r *programRun) outcome() []string {
	out := slices.Clone(r.log)
	for i, ev := range r.events {
		out = append(out, fmt.Sprintf("event %d: %v %v", i, ev.Status(), errKind(ev.Err())))
	}
	return out
}

// transparencyPrograms are fixed host programs over buffers of n bytes;
// p and p2 are two distinct payloads of that size.
var transparencyPrograms = []struct {
	name string
	run  func(r *programRun, n int, p, p2 []byte)
}{
	{"blocking write copy read", func(r *programRun, n int, p, _ []byte) {
		a, b := r.buffer(n), r.buffer(n)
		r.op(r.q.EnqueueWriteBuffer(a, true, 0, p, nil))
		r.op(r.q.EnqueueCopyBuffer(a, b, 0, 0, n, nil))
		r.op(r.q.EnqueueReadBuffer(b, true, 0, r.read(n, p), nil))
	}},
	{"non-blocking write copy read", func(r *programRun, n int, p, _ []byte) {
		a, b := r.buffer(n), r.buffer(n)
		r.op(r.q.EnqueueWriteBuffer(a, false, 0, p, nil))
		r.op(r.q.EnqueueCopyBuffer(a, b, 0, 0, n, nil))
		r.op(r.q.EnqueueReadBuffer(b, false, 0, r.read(n, p), nil))
		r.call(r.q.Finish())
	}},
	{"read then write in one task", func(r *programRun, n int, p, p2 []byte) {
		a := r.buffer(n)
		r.op(r.q.EnqueueWriteBuffer(a, true, 0, p, nil))
		r.op(r.q.EnqueueReadBuffer(a, false, 0, r.read(n, p), nil))
		r.op(r.q.EnqueueWriteBuffer(a, false, 0, p2, nil))
		r.call(r.q.Finish())
		r.op(r.q.EnqueueReadBuffer(a, true, 0, r.read(n, p2), nil))
	}},
	{"two queues waited out of order", func(r *programRun, n int, p, p2 []byte) {
		q2 := r.queue()
		defer q2.Release()
		a, b := r.buffer(n), r.buffer(n)
		r.op(r.q.EnqueueWriteBuffer(a, false, 0, p, nil))
		r.op(q2.EnqueueWriteBuffer(b, false, 0, p2, nil))
		ea := r.op(r.q.EnqueueReadBuffer(a, false, 0, r.read(n, p), nil))
		eb := r.op(q2.EnqueueReadBuffer(b, false, 0, r.read(n, p2), nil))
		r.wait(eb)
		r.wait(ea)
		r.call(q2.Finish())
		r.call(r.q.Finish())
	}},
	{"failing kernel", func(r *programRun, n int, p, _ []byte) {
		a, b := r.buffer(n), r.buffer(n)
		r.call(r.k.SetArg(0, a))
		r.call(r.k.SetArg(1, b))
		r.call(r.k.SetArg(2, int32(n+1))) // past both buffers
		r.op(r.q.EnqueueWriteBuffer(a, false, 0, p, nil))
		r.op(r.q.EnqueueTask(r.k, nil))
		// No op follows the kernel in its task: the Remote Library fails
		// the rest of a failed task (CL_INVALID_OPERATION, "aborted"),
		// where the native runtime runs it.
		r.call(r.q.Finish())
	}},
}

// The paper's transparency claim, as a differential test: the same host
// programs give the same bytes, the same final event statuses and the
// same error kinds on the native runtime and through the Remote Library,
// over inline RPC and over shared memory.
func TestTransparencyNativeVsRemote(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) ocl.Client
	}{
		{"native", func(*testing.T) ocl.Client {
			return native.New(fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog()))
		}},
		{"remote inline", func(t *testing.T) ocl.Client {
			return dialRig(t, newRig(t, manager.Config{}), remote.TransportGRPC, "it-transparency-inline")
		}},
		{"remote shm", func(t *testing.T) ocl.Client {
			return dialRig(t, newRig(t, manager.Config{}), remote.TransportShm, "it-transparency-shm")
		}},
	}
	sizes := []int{999, 1 << 20}
	// outcomes[program/size] holds each backend's outcome in backends order.
	outcomes := map[string][][]string{}
	var keys []string
	for _, be := range backends {
		client := be.open(t)
		ctx, dev, q := openDevice(t, client)
		k := buildLoopback(t, ctx, dev)
		for _, n := range sizes {
			p, p2 := bytes.Repeat([]byte{0xA5, 0x5A, 0x01}, n/3+1)[:n], bytes.Repeat([]byte{0x3C, 0xC3}, n/2+1)[:n]
			for _, prog := range transparencyPrograms {
				key := fmt.Sprintf("%s/%d", prog.name, n)
				r := &programRun{t: t, ctx: ctx, dev: dev, q: q, k: k}
				prog.run(r, n, p, p2)
				for i := range r.reads {
					if !bytes.Equal(r.reads[i], r.want[i]) {
						t.Errorf("%s on %s: read %d holds other bytes than the program wrote", key, be.name, i)
					}
				}
				if outcomes[key] == nil {
					keys = append(keys, key)
				}
				outcomes[key] = append(outcomes[key], r.outcome())
				for _, b := range r.bufs {
					b.Release()
				}
			}
		}
	}
	for _, key := range keys {
		got := outcomes[key]
		for i := 1; i < len(got); i++ {
			if !slices.Equal(got[i], got[0]) {
				t.Errorf("%s: %s and %s disagree\n%s: %q\n%s: %q", key, backends[0].name, backends[i].name,
					backends[0].name, got[0], backends[i].name, got[i])
			}
		}
	}
}
