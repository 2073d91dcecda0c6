package wire

import (
	"testing"

	"blastfunction/internal/ocl"
)

// decodeAll runs every message decoder over the same buffer; none may
// panic regardless of content (a malicious or corrupted peer must not be
// able to crash a Device Manager or client).
func decodeAll(buf []byte) {
	msgs := []codec{
		&HelloRequest{}, &HelloResponse{}, &DeviceInfoResponse{},
		&IDRequest{}, &IDResponse{}, &CreateBufferRequest{},
		&CreateProgramRequest{}, &CreateProgramResponse{},
		&CreateKernelRequest{}, &SetKernelArgRequest{}, &SetupShmRequest{},
		&EnqueueWriteRequest{}, &EnqueueReadRequest{}, &EnqueueKernelRequest{},
		&EnqueueCopyRequest{}, &FlushRequest{}, &OpNotification{},
		&OpNotificationBatch{},
	}
	for _, m := range msgs {
		m.Decode(NewDecoder(buf))
	}
}

// fuzzSeeds is one populated message of every shape the decoders branch
// on: strings, byte fields, slices, trailing optional fields, a batch.
func fuzzSeeds() []codec {
	note := OpNotification{Tag: 1, State: OpComplete, Data: []byte("payload"), DeviceNanos: 1500}
	return []codec{
		&HelloRequest{ClientName: "sobel-1", ProtoVersion: ProtoVersion, Weight: 3},
		&HelloResponse{SessionID: 9, Node: "B", Proto: ProtoVersion, LeaseMillis: 3000},
		&DeviceInfoResponse{Name: "de5a", Vendor: "Intel(R) Corporation", GlobalMem: 8 << 30, Accelerator: "sobel"},
		&CreateBufferRequest{Context: 1, Flags: 2, Size: 4, InitData: []byte{1, 2, 3, 4}, ContentHash: 99},
		&CreateProgramRequest{Context: 1, Binary: []byte("bitstream")},
		&SetKernelArgRequest{Kernel: 4, Index: 2, Arg: ocl.Arg{Kind: ocl.ArgInt32, Scalar: [8]byte{7}, ScalarLen: 4}},
		&CreateProgramResponse{ID: 3, Kernels: []string{"sobel", "copy"}},
		&SetupShmRequest{Path: "/dev/shm/bf-1", Size: 1 << 20},
		&EnqueueWriteRequest{Tag: 2, Queue: 3, Buffer: 4, Via: ViaInline, Data: []byte("inline"), TraceID: 5},
		&EnqueueReadRequest{Tag: 2, Queue: 3, Buffer: 4, Length: 64, Via: ViaShm, ShmOff: 128},
		&EnqueueKernelRequest{Tag: 7, Queue: 8, Kernel: 9, Global: []int{100, 200}, Local: []int{10}},
		&EnqueueCopyRequest{Tag: 1, Queue: 2, SrcBuffer: 3, DstBuffer: 4, Length: 5},
		&FlushRequest{Queue: 3, TraceID: 1},
		&note,
		&OpNotificationBatch{Notes: []OpNotification{note, {Tag: 2, State: OpFailed, Status: -5, Error: "boom"}}},
	}
}

// FuzzDecoders is the decoder sweep as a native fuzz target: the seeds and
// the committed corpus run on every `go test`, `make fuzz-smoke` mutates
// from them.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{})
	for _, m := range fuzzSeeds() {
		e := NewEncoder(256)
		m.Encode(e)
		f.Add(e.Bytes())
	}
	// A Flush with a 3-byte tail, shorter than a trace ID: the decoders
	// read it as untraced.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0xde, 0xad, 0xbe})
	f.Fuzz(func(t *testing.T, buf []byte) {
		decodeAll(buf) // returning at all is the property
	})
}

func TestDecodersNeverPanicOnTruncatedValidMessages(t *testing.T) {
	// Encode a representative message and decode every possible prefix.
	e := NewEncoder(256)
	(&EnqueueKernelRequest{
		Tag: 7, Queue: 8, Kernel: 9,
		Global: []int{100, 200}, Local: []int{10},
	}).Encode(e)
	full := e.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		decodeAll(full[:cut])
	}
}

func TestDecodersNeverPanicOnBitFlips(t *testing.T) {
	e := NewEncoder(256)
	(&OpNotification{Tag: 1, State: OpComplete, Data: []byte("payload")}).Encode(e)
	base := e.Bytes()
	for i := 0; i < len(base); i++ {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			buf := append([]byte(nil), base...)
			buf[i] ^= mask
			decodeAll(buf)
		}
	}
}
