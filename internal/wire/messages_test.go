package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"blastfunction/internal/ocl"
)

// codec is implemented by every protocol message.
type codec interface {
	Encode(*Encoder)
	Decode(*Decoder)
}

// roundTrip encodes msg and decodes it into out, failing on any codec error
// or leftover bytes.
func roundTrip(t *testing.T, msg, out codec) {
	t.Helper()
	e := NewEncoder(64)
	msg.Encode(e)
	d := NewDecoder(e.Bytes())
	out.Decode(d)
	if d.Err() != nil {
		t.Fatalf("%T decode: %v", msg, d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%T: %d leftover bytes", msg, d.Remaining())
	}
}

func TestMessageRoundTrips(t *testing.T) {
	argBuf := ocl.BufferArg(77)
	argScalar, _ := ocl.PackArg(int32(-5))
	cases := []struct{ in, out codec }{
		{&HelloRequest{ClientName: "sobel-1", ProtoVersion: ProtoVersion}, &HelloRequest{}},
		{&HelloRequest{ClientName: "sobel-2", ProtoVersion: ProtoVersion, Weight: 4}, &HelloRequest{}},
		{&HelloResponse{SessionID: 9, Node: "nodeB", Proto: ProtoVersion, LeaseMillis: 3000}, &HelloResponse{}},
		{&DeviceInfoResponse{Name: "de5a_net", Vendor: "Intel", PlatformName: "FPGA SDK",
			GlobalMem: 8 << 30, ConfiguredBit: "spector-sobel", Accelerator: "sobel"}, &DeviceInfoResponse{}},
		{&IDRequest{ID: 4}, &IDRequest{}},
		{&IDResponse{ID: 5}, &IDResponse{}},
		{&CreateBufferRequest{Context: 1, Flags: 3, Size: 1 << 20}, &CreateBufferRequest{}},
		{&CreateBufferRequest{Context: 1, Flags: 1, Size: 4,
			InitData: []byte("abcd"), ContentHash: 0xfeedface}, &CreateBufferRequest{}},
		{&CreateBufferRequest{Context: 1, Flags: 1, Size: 1 << 20,
			ContentHash: 0xfeedface}, &CreateBufferRequest{}},
		{&EnqueueCopyRequest{Tag: 21, Queue: 1, SrcBuffer: 2, DstBuffer: 3,
			SrcOffset: 64, DstOffset: 128, Length: 4096}, &EnqueueCopyRequest{}},
		{&EnqueueCopyRequest{Tag: 22, Queue: 1, SrcBuffer: 2, DstBuffer: 3,
			Length: 4096, TraceID: 0xdead}, &EnqueueCopyRequest{}},
		{&CreateProgramRequest{Context: 2, Binary: []byte("AOCX0:spector-mm")}, &CreateProgramRequest{}},
		{&CreateProgramResponse{ID: 8, Kernels: []string{"mm"}}, &CreateProgramResponse{}},
		{&CreateKernelRequest{Program: 8, Name: "mm"}, &CreateKernelRequest{}},
		{&SetKernelArgRequest{Kernel: 3, Index: 1, Arg: argBuf}, &SetKernelArgRequest{}},
		{&SetKernelArgRequest{Kernel: 3, Index: 2, Arg: argScalar}, &SetKernelArgRequest{}},
		{&SetupShmRequest{Path: "/dev/shm/bf-1", Size: 1 << 24}, &SetupShmRequest{}},
		{&EnqueueWriteRequest{Tag: 11, Queue: 1, Buffer: 2, Offset: 64,
			Via: ViaInline, Data: []byte("abcdef")}, &EnqueueWriteRequest{}},
		{&EnqueueWriteRequest{Tag: 12, Queue: 1, Buffer: 2, Offset: 0,
			Via: ViaShm, ShmOff: 4096, ShmLen: 512}, &EnqueueWriteRequest{}},
		{&EnqueueReadRequest{Tag: 13, Queue: 1, Buffer: 2, Offset: 8, Length: 100,
			Via: ViaShm, ShmOff: 8192}, &EnqueueReadRequest{}},
		{&EnqueueKernelRequest{Tag: 14, Queue: 1, Kernel: 3,
			Global: []int{1024, 8}, Local: []int{16}}, &EnqueueKernelRequest{}},
		{&EnqueueWriteRequest{Tag: 16, Queue: 1, Buffer: 2, Offset: 64,
			Via: ViaInline, Data: []byte("abcdef"), TraceID: 0xdead}, &EnqueueWriteRequest{}},
		{&EnqueueWriteRequest{Tag: 17, Queue: 1, Buffer: 2,
			Via: ViaShm, ShmOff: 4096, ShmLen: 512, TraceID: 0xdead}, &EnqueueWriteRequest{}},
		{&EnqueueReadRequest{Tag: 18, Queue: 1, Buffer: 2, Offset: 8, Length: 100,
			Via: ViaShm, ShmOff: 8192, TraceID: 0xdead}, &EnqueueReadRequest{}},
		{&EnqueueKernelRequest{Tag: 19, Queue: 1, Kernel: 3,
			Global: []int{1024, 8}, Local: []int{16}, TraceID: 0xdead}, &EnqueueKernelRequest{}},
		{&FlushRequest{Queue: 1}, &FlushRequest{}},
		{&FlushRequest{Queue: 3, TraceID: 0xdead}, &FlushRequest{}},
		{&OpNotification{Tag: 14, State: OpComplete, DeviceNanos: 12345,
			Data: []byte("result")}, &OpNotification{}},
		{&OpNotification{Tag: 15, State: OpFailed, Status: int32(ocl.ErrInvalidMemObject),
			Error: "buffer 9"}, &OpNotification{}},
	}
	for _, c := range cases {
		roundTrip(t, c.in, c.out)
		if !reflect.DeepEqual(c.in, c.out) {
			t.Errorf("%T round trip:\n in: %+v\nout: %+v", c.in, c.in, c.out)
		}
	}
}

// TestSchedulerFieldsTrailing pins the zero-omitting encoding of the
// scheduler's trailing field: an unweighted Hello carries no bytes for it,
// and a frame without it decodes with the weight zeroed.
func TestSchedulerFieldsTrailing(t *testing.T) {
	// HelloRequest without the weight: string name, u32 proto.
	old := NewEncoder(32)
	old.String("fn-1")
	old.U32(ProtoVersion)
	now := NewEncoder(32)
	(&HelloRequest{ClientName: "fn-1", ProtoVersion: ProtoVersion}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("unweighted Hello changed on the wire:\nold %x\nnew %x", old.Bytes(), now.Bytes())
	}
	var h HelloRequest
	d := NewDecoder(old.Bytes())
	h.Decode(d)
	if d.Err() != nil || h.Weight != 0 {
		t.Fatalf("unweighted Hello decode: weight=%d err=%v", h.Weight, d.Err())
	}
}

// TestTraceFieldsTrailing pins the zero-omitting encoding of the tracing
// tail: untraced command-queue requests carry no trace bytes, frames
// without the tail decode with the trace ID zeroed, and a Flush is its
// queue alone (8 bytes) or its queue and the 8-byte trace ID (16 bytes).
func TestTraceFieldsTrailing(t *testing.T) {
	// Untraced EnqueueWrite (inline): tag, queue, buffer, offset, via,
	// length-prefixed data.
	old := NewEncoder(64)
	old.U64(11)
	old.U64(1)
	old.U64(2)
	old.I64(64)
	old.U8(uint8(ViaInline))
	old.Bytes32([]byte("abcdef"))
	now := NewEncoder(64)
	(&EnqueueWriteRequest{Tag: 11, Queue: 1, Buffer: 2, Offset: 64,
		Via: ViaInline, Data: []byte("abcdef")}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("untraced EnqueueWrite changed on the wire:\nold %x\nnew %x", old.Bytes(), now.Bytes())
	}
	var w EnqueueWriteRequest
	d := NewDecoder(old.Bytes())
	w.Decode(d)
	if d.Err() != nil || w.TraceID != 0 {
		t.Fatalf("untraced EnqueueWrite decode: trace=%d err=%v", w.TraceID, d.Err())
	}

	// Untraced EnqueueRead.
	old = NewEncoder(64)
	old.U64(13)
	old.U64(1)
	old.U64(2)
	old.I64(8)
	old.I64(100)
	old.U8(uint8(ViaShm))
	old.I64(8192)
	now = NewEncoder(64)
	(&EnqueueReadRequest{Tag: 13, Queue: 1, Buffer: 2, Offset: 8, Length: 100,
		Via: ViaShm, ShmOff: 8192}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("untraced EnqueueRead changed on the wire:\nold %x\nnew %x", old.Bytes(), now.Bytes())
	}

	// Untraced EnqueueKernel.
	old = NewEncoder(64)
	old.U64(14)
	old.U64(1)
	old.U64(3)
	old.U32(2) // global: count-prefixed int64s
	old.I64(1024)
	old.I64(8)
	old.U32(1) // local
	old.I64(16)
	now = NewEncoder(64)
	(&EnqueueKernelRequest{Tag: 14, Queue: 1, Kernel: 3,
		Global: []int{1024, 8}, Local: []int{16}}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("untraced EnqueueKernel changed on the wire:\nold %x\nnew %x", old.Bytes(), now.Bytes())
	}

	// Untraced Flush: u64 queue, nothing else.
	old = NewEncoder(16)
	old.U64(7)
	now = NewEncoder(16)
	(&FlushRequest{Queue: 7}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("untraced Flush changed on the wire:\nold %x\nnew %x", old.Bytes(), now.Bytes())
	}
	var f FlushRequest
	d = NewDecoder(old.Bytes())
	f.Decode(d)
	if d.Err() != nil || f != (FlushRequest{Queue: 7}) {
		t.Fatalf("untraced Flush decode: %+v err=%v", f, d.Err())
	}

	// Traced Flush: u64 queue, u64 trace = 16 bytes.
	old = NewEncoder(32)
	old.U64(7)
	old.U64(0xdead)
	now = NewEncoder(32)
	(&FlushRequest{Queue: 7, TraceID: 0xdead}).Encode(now)
	if got := len(now.Bytes()); got != 16 || !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("traced Flush is %d bytes %x, want 16 bytes %x", got, now.Bytes(), old.Bytes())
	}
	d = NewDecoder(now.Bytes())
	f.Decode(d)
	if d.Err() != nil || f != (FlushRequest{Queue: 7, TraceID: 0xdead}) {
		t.Fatalf("traced Flush decode: %+v err=%v", f, d.Err())
	}

	// Traced inline EnqueueWrite: the trace ID follows the payload.
	old = NewEncoder(64)
	old.U64(16)
	old.U64(1)
	old.U64(2)
	old.I64(64)
	old.U8(uint8(ViaInline))
	old.Bytes32([]byte("abcdef"))
	old.U64(0xdead)
	now = NewEncoder(64)
	(&EnqueueWriteRequest{Tag: 16, Queue: 1, Buffer: 2, Offset: 64,
		Via: ViaInline, Data: []byte("abcdef"), TraceID: 0xdead}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("traced EnqueueWrite:\nwant %x\ngot  %x", old.Bytes(), now.Bytes())
	}

	// One to seven trailing bytes are no trace ID: the request decodes as
	// untraced, without error, and the short tail is left unread.
	for n := 1; n < 8; n++ {
		e := NewEncoder(16)
		e.U64(7)
		d = NewDecoder(append(e.Bytes(), make([]byte, n)...))
		f.Decode(d)
		if d.Err() != nil || f != (FlushRequest{Queue: 7}) || d.Remaining() != n {
			t.Fatalf("Flush with a %d-byte tail: %+v err=%v, %d bytes left", n, f, d.Err(), d.Remaining())
		}
	}
}

// TestReuseFieldsTrailing pins the zero-omitting encoding of the
// data-plane reuse tail: an unhashed CreateBuffer carries no hash bytes,
// and a frame without the tail decodes with the content hash zeroed.
func TestReuseFieldsTrailing(t *testing.T) {
	// Unhashed CreateBuffer: context, flags, size, length-prefixed init
	// data.
	old := NewEncoder(64)
	old.U64(3)
	old.U32(1)
	old.I64(6)
	old.Bytes32([]byte("abcdef"))
	now := NewEncoder(64)
	(&CreateBufferRequest{Context: 3, Flags: 1, Size: 6, InitData: []byte("abcdef")}).Encode(now)
	if !bytes.Equal(old.Bytes(), now.Bytes()) {
		t.Fatalf("unhashed CreateBuffer changed on the wire:\nold %x\nnew %x", old.Bytes(), now.Bytes())
	}
	var c CreateBufferRequest
	d := NewDecoder(old.Bytes())
	c.Decode(d)
	if d.Err() != nil || c.ContentHash != 0 {
		t.Fatalf("unhashed CreateBuffer decode: hash=%#x err=%v", c.ContentHash, d.Err())
	}
	if !bytes.Equal(c.InitData, []byte("abcdef")) {
		t.Fatalf("unhashed CreateBuffer init data: %q", c.InitData)
	}
}

// TestCreateBufferHeadTailMatchesEncode pins the vectored-write split:
// EncodeHead + payload segment + EncodeTail must equal Encode, with and
// without the content-hash tail.
func TestCreateBufferHeadTailMatchesEncode(t *testing.T) {
	for _, hash := range []uint64{0, 0xfeedface} {
		msg := CreateBufferRequest{Context: 3, Flags: 1, Size: 6,
			InitData: []byte("abcdef"), ContentHash: hash}
		whole := NewEncoder(64)
		msg.Encode(whole)
		split := NewEncoder(64)
		msg.EncodeHead(split)
		head := split.Len()
		msg.EncodeTail(split)
		got := append(append([]byte(nil), split.Bytes()[:head]...), msg.InitData...)
		got = append(got, split.Bytes()[head:]...)
		if !bytes.Equal(got, whole.Bytes()) {
			t.Fatalf("hash %#x: head+data+tail != Encode:\nsplit %x\nwhole %x", hash, got, whole.Bytes())
		}
	}
}

func TestArgEncodeDecode(t *testing.T) {
	args := []ocl.Arg{ocl.BufferArg(123)}
	for _, v := range []any{int32(-1), uint32(2), int64(-3), uint64(4), float32(1.5), float64(-2.5)} {
		a, err := ocl.PackArg(v)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, a)
	}
	for _, a := range args {
		e := NewEncoder(16)
		EncodeArg(e, a)
		d := NewDecoder(e.Bytes())
		got := DecodeArg(d)
		if d.Err() != nil {
			t.Fatalf("decode %v: %v", a.Kind, d.Err())
		}
		if got != a {
			t.Errorf("arg %v round trip: got %+v want %+v", a.Kind, got, a)
		}
	}
}

func TestMethodNames(t *testing.T) {
	if MethodHello.String() != "Hello" || MethodFlush.String() != "Flush" {
		t.Fatal("method names wrong")
	}
	if Method(999).String() != "Method(999)" {
		t.Fatalf("unknown method = %q", Method(999).String())
	}
}

func TestOpNotificationEmptyData(t *testing.T) {
	n := &OpNotification{Tag: 1, State: OpComplete}
	e := NewEncoder(32)
	n.Encode(e)
	var out OpNotification
	d := NewDecoder(e.Bytes())
	out.Decode(d)
	if out.Data != nil {
		t.Fatalf("empty data decoded as %v", out.Data)
	}
}

func TestEnqueueWriteDataAliasesFrame(t *testing.T) {
	// Decode aliases the network buffer by contract: instead of copying,
	// the manager retains the whole request frame
	// (rpc.Conn.RetainRequestPayload) and releases it after board.Write.
	// Aliasing is what makes the inline write path zero-copy, so a silent
	// return to copying would be a performance regression — pin it down.
	src := &EnqueueWriteRequest{Tag: 1, Queue: 1, Buffer: 1, Via: ViaInline, Data: []byte("precious")}
	e := NewEncoder(64)
	src.Encode(e)
	raw := append([]byte(nil), e.Bytes()...)
	var dst EnqueueWriteRequest
	dst.Decode(NewDecoder(raw))
	if !bytes.Equal(dst.Data, []byte("precious")) {
		t.Fatalf("decoded payload = %q", dst.Data)
	}
	raw[len(raw)-len(dst.Data)] = 'X'
	if dst.Data[0] != 'X' {
		t.Fatal("decoded payload no longer aliases the frame buffer; the manager's retain/release ownership scheme depends on it")
	}
}

func TestEncodeHeadPlusDataMatchesEncode(t *testing.T) {
	// The vectored write path sends EncodeHead output and the Data slice as
	// separate segments; together they must be byte-identical to Encode.
	w := &EnqueueWriteRequest{Tag: 7, Queue: 2, Buffer: 3, Offset: 16, Via: ViaInline, Data: []byte("payload")}
	whole, head := NewEncoder(64), NewEncoder(64)
	w.Encode(whole)
	w.EncodeHead(head)
	if got := append(append([]byte(nil), head.Bytes()...), w.Data...); !bytes.Equal(got, whole.Bytes()) {
		t.Errorf("EnqueueWriteRequest head+data != whole:\n%x\n%x", got, whole.Bytes())
	}
	n := &OpNotification{Tag: 9, State: OpComplete, DeviceNanos: 5, Data: []byte("result")}
	whole, head = NewEncoder(64), NewEncoder(64)
	n.Encode(whole)
	n.EncodeHead(head)
	if got := append(append([]byte(nil), head.Bytes()...), n.Data...); !bytes.Equal(got, whole.Bytes()) {
		t.Errorf("OpNotification head+data != whole:\n%x\n%x", got, whole.Bytes())
	}
}

func TestOpNotificationBatchRoundTrip(t *testing.T) {
	in := &OpNotificationBatch{Notes: []OpNotification{
		{Tag: 1, State: OpAccepted},
		{Tag: 1, State: OpRunning},
		{Tag: 1, State: OpComplete, DeviceNanos: 42, Data: []byte("abc")},
		{Tag: 2, State: OpFailed, Status: int32(ocl.ErrInvalidMemObject), Error: "buffer 9"},
	}}
	e := NewEncoder(128)
	in.Encode(e)
	var out OpNotificationBatch
	d := NewDecoder(e.Bytes())
	out.Decode(d)
	if d.Err() != nil {
		t.Fatalf("decode: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d leftover bytes", d.Remaining())
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("batch round trip:\n in: %+v\nout: %+v", in, &out)
	}
}

func TestOpNotificationBatchHostileCount(t *testing.T) {
	// A frame claiming far more notifications than its bytes could encode
	// must fail before the slice allocation, not after a ~100x amplified
	// make([]OpNotification, n).
	e := NewEncoder(64)
	e.U32(1 << 30)
	e.Raw(make([]byte, 40)) // room for barely one notification
	var out OpNotificationBatch
	d := NewDecoder(e.Bytes())
	out.Decode(d)
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("hostile count decoded with err = %v, want ErrTruncated", d.Err())
	}
	if out.Notes != nil {
		t.Fatalf("hostile count still allocated %d notes", len(out.Notes))
	}
}

func TestOpStateString(t *testing.T) {
	for s, want := range map[OpState]string{
		OpAccepted: "accepted", OpRunning: "running",
		OpComplete: "complete", OpFailed: "failed", OpState(0): "unknown",
	} {
		if s.String() != want {
			t.Errorf("OpState(%d) = %q", s, s.String())
		}
	}
}
