package wire

import (
	"fmt"

	"blastfunction/internal/ocl"
)

// Method identifies a Device Manager service method.
type Method uint16

// Device Manager service methods. The first group contains the paper's
// "context and information" methods, executed synchronously; the second
// group contains the "command-queue" methods, which join the client's
// current task and complete asynchronously through notifications.
const (
	MethodHello Method = iota + 1
	MethodDeviceInfo
	MethodCreateContext
	MethodReleaseContext
	MethodCreateQueue
	MethodReleaseQueue
	MethodCreateBuffer
	MethodReleaseBuffer
	MethodCreateProgram
	MethodBuildProgram // the blocking board-reconfiguration request
	MethodCreateKernel
	MethodReleaseKernel
	MethodSetKernelArg
	MethodSetupShm

	MethodEnqueueWrite
	MethodEnqueueRead
	MethodEnqueueKernel
	MethodFlush

	// MethodHeartbeat renews the client's session lease. It carries no body
	// and returns no body; its only effect is refreshing the manager-side
	// lease deadline.
	MethodHeartbeat

	// MethodEnqueueCopy moves bytes between two device buffers without
	// routing them through the client. It is the chaining primitive: a
	// pipeline stage's output buffer becomes the next stage's input with a
	// device-local copy.
	MethodEnqueueCopy
)

var methodNames = map[Method]string{
	MethodHello:          "Hello",
	MethodDeviceInfo:     "DeviceInfo",
	MethodCreateContext:  "CreateContext",
	MethodReleaseContext: "ReleaseContext",
	MethodCreateQueue:    "CreateQueue",
	MethodReleaseQueue:   "ReleaseQueue",
	MethodCreateBuffer:   "CreateBuffer",
	MethodReleaseBuffer:  "ReleaseBuffer",
	MethodCreateProgram:  "CreateProgram",
	MethodBuildProgram:   "BuildProgram",
	MethodCreateKernel:   "CreateKernel",
	MethodReleaseKernel:  "ReleaseKernel",
	MethodSetKernelArg:   "SetKernelArg",
	MethodSetupShm:       "SetupShm",
	MethodEnqueueWrite:   "EnqueueWrite",
	MethodEnqueueRead:    "EnqueueRead",
	MethodEnqueueKernel:  "EnqueueKernel",
	MethodFlush:          "Flush",
	MethodHeartbeat:      "Heartbeat",
	MethodEnqueueCopy:    "EnqueueCopy",
}

// String names the method.
func (m Method) String() string {
	if n, ok := methodNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Method(%d)", uint16(m))
}

// DataVia selects the data path of a buffer transfer.
type DataVia uint8

// Transfer data paths.
const (
	// ViaInline carries the payload inside the RPC message (the gRPC data
	// path of the paper, with its serialization and copy costs).
	ViaInline DataVia = 0
	// ViaShm references a range of the session's shared-memory segment.
	ViaShm DataVia = 1
)

// EncodeArg appends a kernel argument.
func EncodeArg(e *Encoder, a ocl.Arg) {
	e.U8(uint8(a.Kind))
	switch a.Kind {
	case ocl.ArgBuffer:
		e.U64(a.BufferID)
	default:
		e.U8(a.ScalarLen)
		e.buf = append(e.buf, a.Scalar[:]...)
	}
}

// DecodeArg reads a kernel argument.
func DecodeArg(d *Decoder) ocl.Arg {
	var a ocl.Arg
	a.Kind = ocl.ArgKind(d.U8())
	switch a.Kind {
	case ocl.ArgBuffer:
		a.BufferID = d.U64()
	default:
		a.ScalarLen = d.U8()
		copy(a.Scalar[:], d.take(len(a.Scalar)))
	}
	return a
}

// HelloRequest opens a session.
type HelloRequest struct {
	// ClientName identifies the function instance (paper: functions are
	// registered entities; the manager tracks per-client resource pools).
	ClientName string
	// ProtoVersion is the client's protocol revision; the manager refuses
	// any value but its own ProtoVersion.
	ProtoVersion uint32
	// Weight is the client's fair-share weight under weighted scheduling
	// disciplines, propagated from the Registry binding. Trailing field:
	// zero means unweighted and is not encoded.
	Weight uint32
}

// ProtoVersion is the protocol revision. The Remote Library and the Device
// Manager are built from one module, so Hello is a skew guard, not a
// negotiation: each side refuses a peer whose revision differs from its
// own.
const ProtoVersion = 7

// encodeTraceTail appends the trailing trace ID of a command-queue
// request. An untraced request (TraceID zero) appends nothing: zero is not
// encoded.
func encodeTraceTail(e *Encoder, traceID uint64) {
	if traceID != 0 {
		e.U64(traceID)
	}
}

// decodeTraceTail reads the trailing trace ID if present. Fewer than 8
// trailing bytes are not a trace ID: the request decodes as untraced.
func decodeTraceTail(d *Decoder) uint64 {
	if d.Remaining() >= 8 {
		return d.U64()
	}
	return 0
}

// Encode serializes the message.
func (m *HelloRequest) Encode(e *Encoder) {
	e.String(m.ClientName)
	e.U32(m.ProtoVersion)
	if m.Weight > 0 {
		e.U32(m.Weight)
	}
}

// Decode deserializes the message.
func (m *HelloRequest) Decode(d *Decoder) {
	m.ClientName = d.String()
	m.ProtoVersion = d.U32()
	m.Weight = 0
	if d.Remaining() > 0 {
		m.Weight = d.U32()
	}
}

// HelloResponse confirms a session.
type HelloResponse struct {
	SessionID uint64
	// Node is the manager's node name, used by the shm transport to check
	// co-location.
	Node string
	// Proto is the manager's ProtoVersion; the library refuses a manager
	// whose revision differs from its own.
	Proto uint32
	// LeaseMillis is the session lease duration in milliseconds; the
	// client must send a MethodHeartbeat at least that often or the
	// manager reclaims the session. Zero disables leasing.
	LeaseMillis uint32
}

// Encode serializes the message.
func (m *HelloResponse) Encode(e *Encoder) {
	e.U64(m.SessionID)
	e.String(m.Node)
	e.U32(m.Proto)
	e.U32(m.LeaseMillis)
}

// Decode deserializes the message.
func (m *HelloResponse) Decode(d *Decoder) {
	m.SessionID = d.U64()
	m.Node = d.String()
	m.Proto = d.U32()
	m.LeaseMillis = d.U32()
}

// DeviceInfoResponse describes the managed board.
type DeviceInfoResponse struct {
	Name          string
	Vendor        string
	PlatformName  string
	GlobalMem     int64
	ConfiguredBit string
	Accelerator   string
	// ReconfigMillis advertises the board's wall-clock reprogramming cost
	// so clients can derive a BuildProgram deadline that outlives the
	// flash instead of tripping the generic call timeout mid-reconfigure.
	// Trailing field: zero (unknown) is not encoded.
	ReconfigMillis uint32
}

// Encode serializes the message.
func (m *DeviceInfoResponse) Encode(e *Encoder) {
	e.String(m.Name)
	e.String(m.Vendor)
	e.String(m.PlatformName)
	e.I64(m.GlobalMem)
	e.String(m.ConfiguredBit)
	e.String(m.Accelerator)
	if m.ReconfigMillis > 0 {
		e.U32(m.ReconfigMillis)
	}
}

// Decode deserializes the message.
func (m *DeviceInfoResponse) Decode(d *Decoder) {
	m.Name = d.String()
	m.Vendor = d.String()
	m.PlatformName = d.String()
	m.GlobalMem = d.I64()
	m.ConfiguredBit = d.String()
	m.Accelerator = d.String()
	m.ReconfigMillis = 0
	if d.Remaining() >= 4 {
		m.ReconfigMillis = d.U32()
	}
}

// IDRequest addresses an object by server-issued handle. Used by the
// Release* methods and BuildProgram.
type IDRequest struct{ ID uint64 }

// Encode serializes the message.
func (m *IDRequest) Encode(e *Encoder) { e.U64(m.ID) }

// Decode deserializes the message.
func (m *IDRequest) Decode(d *Decoder) { m.ID = d.U64() }

// IDResponse returns a server-issued handle.
type IDResponse struct{ ID uint64 }

// Encode serializes the message.
func (m *IDResponse) Encode(e *Encoder) { e.U64(m.ID) }

// Decode deserializes the message.
func (m *IDResponse) Decode(d *Decoder) { m.ID = d.U64() }

// CreateBufferRequest allocates a device buffer. Buffer management is a
// context/information method (synchronous) in the paper's taxonomy, so the
// optional CL_MEM_COPY_HOST_PTR initialization data travels inline and the
// call returns only after the transfer.
type CreateBufferRequest struct {
	Context  uint64
	Flags    uint32
	Size     int64
	InitData []byte
	// ContentHash addresses the manager's content-keyed device buffer
	// cache. With InitData it labels the upload for later reuse; without
	// InitData it is a cache probe — the manager answers with a shared
	// buffer handle on a hit or ID 0 on a miss. Trailing field after the
	// payload: zero is not encoded.
	ContentHash uint64
}

// Encode serializes the message.
func (m *CreateBufferRequest) Encode(e *Encoder) {
	m.EncodeHead(e)
	e.Raw(m.InitData)
	m.EncodeTail(e)
}

// EncodeHead serializes everything up to and including the u32 init-data
// length; the InitData bytes are expected to follow as their own write
// segment (vectored write) or Raw append, then EncodeTail.
func (m *CreateBufferRequest) EncodeHead(e *Encoder) {
	e.U64(m.Context)
	e.U32(m.Flags)
	e.I64(m.Size)
	e.U32(uint32(len(m.InitData)))
}

// EncodeTail serializes the trailing content hash (nothing when zero).
func (m *CreateBufferRequest) EncodeTail(e *Encoder) {
	if m.ContentHash != 0 {
		e.U64(m.ContentHash)
	}
}

// Decode deserializes the message.
func (m *CreateBufferRequest) Decode(d *Decoder) {
	m.Context = d.U64()
	m.Flags = d.U32()
	m.Size = d.I64()
	// InitData aliases the decode buffer; the handler consumes it before
	// returning (board.Write during CreateBuffer), so no copy is needed.
	m.InitData = nil
	if b := d.Bytes32(); len(b) > 0 {
		m.InitData = b
	}
	m.ContentHash = 0
	if d.Remaining() >= 8 {
		m.ContentHash = d.U64()
	}
}

// CreateProgramRequest loads a bitstream binary.
type CreateProgramRequest struct {
	Context uint64
	Binary  []byte
}

// Encode serializes the message.
func (m *CreateProgramRequest) Encode(e *Encoder) {
	e.U64(m.Context)
	e.Bytes32(m.Binary)
}

// Decode deserializes the message.
func (m *CreateProgramRequest) Decode(d *Decoder) {
	m.Context = d.U64()
	m.Binary = append([]byte(nil), d.Bytes32()...)
}

// CreateProgramResponse returns the program handle and its kernels.
type CreateProgramResponse struct {
	ID      uint64
	Kernels []string
}

// Encode serializes the message.
func (m *CreateProgramResponse) Encode(e *Encoder) {
	e.U64(m.ID)
	e.StringSlice(m.Kernels)
}

// Decode deserializes the message.
func (m *CreateProgramResponse) Decode(d *Decoder) {
	m.ID = d.U64()
	m.Kernels = d.StringSlice()
}

// CreateKernelRequest instantiates a kernel from a program.
type CreateKernelRequest struct {
	Program uint64
	Name    string
}

// Encode serializes the message.
func (m *CreateKernelRequest) Encode(e *Encoder) {
	e.U64(m.Program)
	e.String(m.Name)
}

// Decode deserializes the message.
func (m *CreateKernelRequest) Decode(d *Decoder) {
	m.Program = d.U64()
	m.Name = d.String()
}

// SetKernelArgRequest binds one kernel argument.
type SetKernelArgRequest struct {
	Kernel uint64
	Index  uint32
	Arg    ocl.Arg
}

// Encode serializes the message.
func (m *SetKernelArgRequest) Encode(e *Encoder) {
	e.U64(m.Kernel)
	e.U32(m.Index)
	EncodeArg(e, m.Arg)
}

// Decode deserializes the message.
func (m *SetKernelArgRequest) Decode(d *Decoder) {
	m.Kernel = d.U64()
	m.Index = d.U32()
	m.Arg = DecodeArg(d)
}

// SetupShmRequest asks the manager to open the client's shared-memory
// segment.
type SetupShmRequest struct {
	// Path is the segment's filesystem path (under /dev/shm).
	Path string
	// Size is the segment length in bytes.
	Size int64
}

// Encode serializes the message.
func (m *SetupShmRequest) Encode(e *Encoder) {
	e.String(m.Path)
	e.I64(m.Size)
}

// Decode deserializes the message.
func (m *SetupShmRequest) Decode(d *Decoder) {
	m.Path = d.String()
	m.Size = d.I64()
}

// EnqueueWriteRequest transfers host data into a device buffer.
type EnqueueWriteRequest struct {
	// Tag is the client-side event identity echoed in notifications — the
	// paper's "pointer to the newly created event".
	Tag    uint64
	Queue  uint64
	Buffer uint64
	Offset int64
	Via    DataVia
	// Data carries the payload for ViaInline.
	Data []byte
	// ShmOff/ShmLen reference the payload for ViaShm.
	ShmOff int64
	ShmLen int64
	// TraceID is the operation's sampled trace. Trailing field after the
	// payload: zero (untraced) is not encoded.
	TraceID uint64
}

// Encode serializes the message.
func (m *EnqueueWriteRequest) Encode(e *Encoder) {
	m.EncodeHead(e)
	if m.Via == ViaInline {
		e.Raw(m.Data)
	}
	m.EncodeTail(e)
}

// EncodeHead serializes everything except the inline payload bytes: for
// ViaInline the head ends with the u32 data length, and the Data slice is
// expected to follow as its own write segment (vectored write) or Raw
// append. For ViaShm the head is the whole message.
func (m *EnqueueWriteRequest) EncodeHead(e *Encoder) {
	e.U64(m.Tag)
	e.U64(m.Queue)
	e.U64(m.Buffer)
	e.I64(m.Offset)
	e.U8(uint8(m.Via))
	if m.Via == ViaInline {
		e.U32(uint32(len(m.Data)))
	} else {
		e.I64(m.ShmOff)
		e.I64(m.ShmLen)
	}
}

// EncodeTail serializes the trailing trace ID (nothing when untraced).
// It follows the inline payload on the wire, so a vectored sender encodes
// head and tail into one buffer and slots the Data segment between them.
func (m *EnqueueWriteRequest) EncodeTail(e *Encoder) {
	encodeTraceTail(e, m.TraceID)
}

// Decode deserializes the message. Data aliases the decode buffer: the
// manager retains the request payload (rpc.Conn.RetainRequestPayload) and
// releases it once the bytes reach the board.
func (m *EnqueueWriteRequest) Decode(d *Decoder) {
	m.Tag = d.U64()
	m.Queue = d.U64()
	m.Buffer = d.U64()
	m.Offset = d.I64()
	m.Via = DataVia(d.U8())
	if m.Via == ViaInline {
		m.Data = d.Bytes32()
	} else {
		m.ShmOff = d.I64()
		m.ShmLen = d.I64()
	}
	m.TraceID = decodeTraceTail(d)
}

// EnqueueReadRequest transfers device data back to the host.
type EnqueueReadRequest struct {
	Tag    uint64
	Queue  uint64
	Buffer uint64
	Offset int64
	Length int64
	Via    DataVia
	// ShmOff is the destination offset inside the segment for ViaShm.
	ShmOff int64
	// TraceID: trailing trace identity, as on EnqueueWriteRequest.
	TraceID uint64
}

// Encode serializes the message.
func (m *EnqueueReadRequest) Encode(e *Encoder) {
	e.U64(m.Tag)
	e.U64(m.Queue)
	e.U64(m.Buffer)
	e.I64(m.Offset)
	e.I64(m.Length)
	e.U8(uint8(m.Via))
	e.I64(m.ShmOff)
	encodeTraceTail(e, m.TraceID)
}

// Decode deserializes the message.
func (m *EnqueueReadRequest) Decode(d *Decoder) {
	m.Tag = d.U64()
	m.Queue = d.U64()
	m.Buffer = d.U64()
	m.Offset = d.I64()
	m.Length = d.I64()
	m.Via = DataVia(d.U8())
	m.ShmOff = d.I64()
	m.TraceID = decodeTraceTail(d)
}

// EnqueueKernelRequest launches a kernel. The NDRange travels as
// count-prefixed int64s.
type EnqueueKernelRequest struct {
	Tag    uint64
	Queue  uint64
	Kernel uint64
	Global []int
	Local  []int
	// TraceID: trailing trace identity, as on EnqueueWriteRequest.
	TraceID uint64
}

// Encode serializes the message.
func (m *EnqueueKernelRequest) Encode(e *Encoder) {
	e.U64(m.Tag)
	e.U64(m.Queue)
	e.U64(m.Kernel)
	e.Ints(m.Global)
	e.Ints(m.Local)
	encodeTraceTail(e, m.TraceID)
}

// Decode deserializes the message. The NDRange is appended to the
// emptied Global and Local the caller set, so preset arrays are reused.
func (m *EnqueueKernelRequest) Decode(d *Decoder) {
	m.Tag = d.U64()
	m.Queue = d.U64()
	m.Kernel = d.U64()
	m.Global = d.AppendInts(m.Global[:0])
	m.Local = d.AppendInts(m.Local[:0])
	m.TraceID = decodeTraceTail(d)
}

// EnqueueCopyRequest moves Length bytes from one device buffer to another
// on the board, joining the client's current task like the other enqueues.
// The bytes never leave the device, which is what makes multi-stage
// pipelines zero-copy from the client's viewpoint.
type EnqueueCopyRequest struct {
	Tag       uint64
	Queue     uint64
	SrcBuffer uint64
	DstBuffer uint64
	SrcOffset int64
	DstOffset int64
	Length    int64
	// TraceID: trailing trace identity, as on EnqueueWriteRequest.
	TraceID uint64
}

// Encode serializes the message.
func (m *EnqueueCopyRequest) Encode(e *Encoder) {
	e.U64(m.Tag)
	e.U64(m.Queue)
	e.U64(m.SrcBuffer)
	e.U64(m.DstBuffer)
	e.I64(m.SrcOffset)
	e.I64(m.DstOffset)
	e.I64(m.Length)
	encodeTraceTail(e, m.TraceID)
}

// Decode deserializes the message.
func (m *EnqueueCopyRequest) Decode(d *Decoder) {
	m.Tag = d.U64()
	m.Queue = d.U64()
	m.SrcBuffer = d.U64()
	m.DstBuffer = d.U64()
	m.SrcOffset = d.I64()
	m.DstOffset = d.I64()
	m.Length = d.I64()
	m.TraceID = decodeTraceTail(d)
}

// FlushRequest seals the client's current task on a queue and submits it
// to the manager's central queue.
type FlushRequest struct {
	Queue uint64
	// TraceID is the flush-formed task's sampled trace. An untraced flush
	// is the queue alone.
	TraceID uint64
}

// Encode serializes the message.
func (m *FlushRequest) Encode(e *Encoder) {
	e.U64(m.Queue)
	encodeTraceTail(e, m.TraceID)
}

// Decode deserializes the message.
func (m *FlushRequest) Decode(d *Decoder) {
	m.Queue = d.U64()
	m.TraceID = decodeTraceTail(d)
}

// OpState is the state carried by an operation notification.
type OpState uint8

// Operation notification states, mirroring the event state machine of the
// Remote OpenCL Library (INIT is client-local and never crosses the wire).
const (
	// OpAccepted confirms the manager appended the operation to the
	// client's task (the FIRST step of the paper's state machine).
	OpAccepted OpState = 1
	// OpRunning signals the task containing the operation started on the
	// device.
	OpRunning OpState = 2
	// OpComplete signals the operation finished; reads carry data.
	OpComplete OpState = 3
	// OpFailed signals the operation failed; Status holds the code.
	OpFailed OpState = 4
)

// String names the state.
func (s OpState) String() string {
	switch s {
	case OpAccepted:
		return "accepted"
	case OpRunning:
		return "running"
	case OpComplete:
		return "complete"
	case OpFailed:
		return "failed"
	}
	return "unknown"
}

// OpNotification is pushed from the Device Manager to the client as an
// operation progresses. Tag identifies the client-side event.
//
// Wire order puts Data LAST so the head — every fixed field plus the u32
// data length — can be encoded separately from the payload bytes, which
// then travel as their own vectored-write segment without ever being
// copied into the encoder.
type OpNotification struct {
	Tag    uint64
	State  OpState
	Status int32
	Error  string
	// ShmLen tells a ViaShm read how many bytes landed at its ShmOff.
	ShmLen int64
	// DeviceNanos is the modelled device time the operation occupied,
	// exposed for profiling (CL_PROFILING_COMMAND_* analog) and metrics.
	DeviceNanos int64
	// Data carries read results for ViaInline reads.
	Data []byte
}

// Encode serializes the message.
func (m *OpNotification) Encode(e *Encoder) {
	m.EncodeHead(e)
	e.Raw(m.Data)
}

// EncodeHead serializes everything up to and including the u32 data
// length; the Data bytes themselves are expected to follow as a separate
// write segment (or Raw append).
func (m *OpNotification) EncodeHead(e *Encoder) {
	e.U64(m.Tag)
	e.U8(uint8(m.State))
	e.I32(m.Status)
	e.String(m.Error)
	e.I64(m.ShmLen)
	e.I64(m.DeviceNanos)
	e.U32(uint32(len(m.Data)))
}

// Decode deserializes the message. Data aliases the decode buffer; the
// remote library copies read results into their destinations before the
// read loop releases the frame (unless ReadNotificationBatch
// already landed them there, and Data is empty).
func (m *OpNotification) Decode(d *Decoder) {
	m.Tag = d.U64()
	m.State = OpState(d.U8())
	m.Status = d.I32()
	m.Error = d.String()
	m.ShmLen = d.I64()
	m.DeviceNanos = d.I64()
	m.Data = nil
	if b := d.Bytes32(); len(b) > 0 {
		m.Data = b
	}
}

// minEncodedNotificationSize is the smallest possible OpNotification
// encoding — all fixed fields plus empty Error and Data length prefixes
// (8+1+4+4+8+8+4 bytes). Bounds the batch count a frame can plausibly
// claim.
const minEncodedNotificationSize = 37

// OpNotificationBatch is the payload of every notification frame: the
// notifications a task emits, coalesced. Wire layout: u32 count followed
// by count consecutive OpNotification encodings. The manager's notify
// batcher assembles the frame incrementally (reserving the count with
// U32(0) and patching it via SetU32 at flush), so this type exists for
// whole-batch encodes and decodes in tests; the client decodes one
// notification at a time, or streams a large batch off the connection
// with ReadNotificationBatch.
type OpNotificationBatch struct {
	Notes []OpNotification
}

// Encode serializes the message.
func (m *OpNotificationBatch) Encode(e *Encoder) {
	e.U32(uint32(len(m.Notes)))
	for i := range m.Notes {
		m.Notes[i].Encode(e)
	}
}

// Decode deserializes the message. Each notification's Data aliases the
// decode buffer.
func (m *OpNotificationBatch) Decode(d *Decoder) {
	n := d.U32()
	// Bounding by the minimum encoding size keeps a hostile count from
	// forcing a huge slice allocation before the first element decode fails.
	if d.err != nil || uint64(n) > uint64(d.Remaining())/minEncodedNotificationSize {
		if d.err == nil {
			d.err = fmt.Errorf("%w: batch of %d notifications", ErrTruncated, n)
		}
		return
	}
	m.Notes = make([]OpNotification, n)
	for i := range m.Notes {
		m.Notes[i].Decode(d)
	}
}
