package manager

import (
	"sync"
	"sync/atomic"

	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/rpc"
	"blastfunction/internal/shm"
	"blastfunction/internal/wire"
)

// session is one client's private resource pool. Handles issued to a
// client are session-scoped, so a tenant can neither guess nor reach
// another tenant's buffers, kernels or queues — the isolation property of
// the paper's Device Manager.
type session struct {
	id         uint64
	clientName string
	// log is the manager's logger with the client attached once (set at
	// Hello), so per-task events do not box the name.
	log *logx.Logger
	// tm holds the tenant's metric handles, resolved once at Hello.
	tm *tenantMetrics
	// conn is the session's connection, set at Hello. The lease sweeper
	// uses it to deliver OpFailed notifications and close an expired
	// session from outside the request path.
	conn *rpc.Conn
	// lastBeat is the unix-nano timestamp of the last request (any method
	// renews the lease, Heartbeat exists for idle sessions).
	lastBeat atomic.Int64
	// expired flips once the lease sweeper reclaims the session; the
	// worker fast-fails queued tasks of expired sessions instead of
	// running them against freed resources.
	expired atomic.Bool
	// weight is the fair-share weight the client declared at Hello (the
	// Registry-propagated binding); zero means unweighted. Immutable after
	// the handshake.
	weight int
	// flight keys the session's flight-recorder skeleton (synthetic:
	// session-scoped milestones happen outside any traced task). Set once
	// at Hello, before the connection serves requests.
	flight obs.TraceID
	// kernelReq is EnqueueKernel's decode scratch, so its NDRange arrays
	// are reused. Only the connection's goroutine touches it: requests on
	// a connection are dispatched one at a time.
	kernelReq wire.EnqueueKernelRequest

	mu       sync.Mutex
	nextID   uint64
	contexts map[uint64]struct{}
	queues   map[uint64]*queueState
	buffers  map[uint64]bufferInfo
	programs map[uint64]programInfo
	kernels  map[uint64]*kernelState
	seg      *shm.Segment
}

type queueState struct {
	// cur accumulates command-queue operations until the next flush seals
	// them into a task.
	cur []op
	// accepted holds the tags whose Accepted acknowledgement is deferred
	// to flush time, where they leave as one batch frame.
	accepted []uint64
	// spare is an executed task the worker handed back; the next flush
	// reuses it, and its op array becomes the next cur.
	spare *task
}

type bufferInfo struct {
	boardID uint64
	size    int64
	flags   ocl.MemFlags
	// hash/shared mark a handle backed by the content-addressed cache:
	// the board buffer is shared across sessions, immutable (writes and
	// copy destinations are rejected), and released by reference count
	// instead of board.Free.
	hash   uint64
	shared bool
}

type programInfo struct {
	binary []byte
	bitID  string
	spec   *fpga.Bitstream
}

type kernelState struct {
	name    string
	numArgs int
	args    []ocl.Arg
	set     []bool
}

func newSession(id uint64, clientName string) *session {
	return &session{
		id:         id,
		clientName: clientName,
		contexts:   make(map[uint64]struct{}),
		queues:     make(map[uint64]*queueState),
		buffers:    make(map[uint64]bufferInfo),
		programs:   make(map[uint64]programInfo),
		kernels:    make(map[uint64]*kernelState),
	}
}

func (s *session) newID() uint64 {
	s.nextID++
	return s.nextID
}

// release frees everything the client still holds. Called on disconnect.
func (s *session) release(m *Manager) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range s.queues {
		releaseOps(q.cur) // unflushed inline payloads go back to the pool
		q.cur = nil
		q.accepted = nil // connection gone: nobody left to notify
	}
	for _, b := range s.buffers {
		m.dropBuffer(b) // an already-freed buffer is harmless here
	}
	s.buffers = map[uint64]bufferInfo{}
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
}

// expire reclaims the session after its lease ran out. Unlike release
// (where the connection is already gone), the connection is usually still
// alive here — the client is wedged or partitioned, not disconnected — so
// deferred Accepted acknowledgements are terminated with OpFailed, the way
// releaseQueue does, before the resources go away.
func (s *session) expire(m *Manager) {
	s.mu.Lock()
	var accepted []uint64
	for _, q := range s.queues {
		accepted = append(accepted, q.accepted...)
		q.accepted = nil
	}
	s.mu.Unlock()
	for _, tag := range accepted {
		s.sendFail(s.conn, tag, ocl.Errf(ocl.ErrDeviceNotAvailable, "session lease expired"))
	}
	s.release(m)
}

// recycle hands an executed task back to its queue as the spare the next
// flush reuses. The worker calls it last: nothing reads the task after.
// Tasks failed in the queue (lease expiry) or at submit never come here.
func (s *session) recycle(t *task) {
	s.mu.Lock()
	if t.q.spare == nil {
		t.q.spare = t
	}
	s.mu.Unlock()
}

func encodeID(id uint64) []byte {
	e := wire.GetEncoder(8)
	(&wire.IDResponse{ID: id}).Encode(e)
	return e.Detach()
}

func (s *session) createContext() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.newID()
	s.contexts[id] = struct{}{}
	return encodeID(id), nil
}

func (s *session) releaseContext(d *wire.Decoder) ([]byte, error) {
	var req wire.IDRequest
	req.Decode(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.contexts[req.ID]; !ok {
		return nil, ocl.Errf(ocl.ErrInvalidContext, "context %d", req.ID)
	}
	delete(s.contexts, req.ID)
	return nil, nil
}

func (s *session) createQueue(d *wire.Decoder) ([]byte, error) {
	var req wire.IDRequest // carries the owning context
	req.Decode(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.contexts[req.ID]; !ok {
		return nil, ocl.Errf(ocl.ErrInvalidContext, "queue: context %d", req.ID)
	}
	id := s.newID()
	s.queues[id] = &queueState{}
	return encodeID(id), nil
}

func (s *session) releaseQueue(m *Manager, c *rpc.Conn, d *wire.Decoder) ([]byte, error) {
	var req wire.IDRequest
	req.Decode(d)
	s.mu.Lock()
	q, ok := s.queues[req.ID]
	if !ok {
		s.mu.Unlock()
		return nil, ocl.Errf(ocl.ErrInvalidCommandQueue, "queue %d", req.ID)
	}
	// Unflushed operations die with the queue; clients call Finish first
	// (the remote library always does).
	ops := q.cur
	q.cur = nil
	accepted := q.accepted
	q.accepted = nil
	delete(s.queues, req.ID)
	s.mu.Unlock()
	releaseOps(ops)
	// These tags never got an acknowledgement (it was deferred to flush);
	// terminate their events instead of leaving them dangling until
	// connection teardown.
	for _, tag := range accepted {
		s.sendFail(c, tag, ocl.Errf(ocl.ErrInvalidOperation, "queue released before flush"))
	}
	return nil, nil
}

func (s *session) createBuffer(m *Manager, d *wire.Decoder) ([]byte, error) {
	var req wire.CreateBufferRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed CreateBuffer: %v", err)
	}
	if !ocl.MemFlags(req.Flags).Valid() {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "buffer flags %#x", req.Flags)
	}
	if req.InitData != nil && int64(len(req.InitData)) > req.Size {
		return nil, ocl.Errf(ocl.ErrInvalidBufferSize,
			"init data of %d bytes exceeds buffer size %d", len(req.InitData), req.Size)
	}
	s.mu.Lock()
	if _, ok := s.contexts[req.Context]; !ok {
		s.mu.Unlock()
		return nil, ocl.Errf(ocl.ErrInvalidContext, "buffer: context %d", req.Context)
	}
	s.mu.Unlock()
	if req.ContentHash != 0 {
		if m.bufcache == nil {
			if len(req.InitData) == 0 {
				// Probe against a disabled cache: always a miss. Answering
				// with a fresh uninitialized buffer here would hand the
				// client garbage it believes is its content.
				return encodeID(0), nil
			}
			// Upload frames just fall through to a plain private create.
		} else {
			return s.createCachedBuffer(m, &req)
		}
	}
	boardID, err := m.board.Alloc(req.Size)
	if err != nil {
		return nil, err
	}
	if len(req.InitData) > 0 {
		d, err := m.board.Write(boardID, 0, req.InitData)
		if err != nil {
			m.board.Free(boardID)
			return nil, err
		}
		m.board.Hold(d)
	}
	id := s.insertBuffer(bufferInfo{boardID: boardID, size: req.Size, flags: ocl.MemFlags(req.Flags)})
	return encodeID(id), nil
}

// insertBuffer registers a buffer in the session's pool under a fresh
// session-scoped handle.
func (s *session) insertBuffer(info bufferInfo) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.newID()
	s.buffers[id] = info
	return id
}

func (s *session) releaseBuffer(m *Manager, d *wire.Decoder) ([]byte, error) {
	var req wire.IDRequest
	req.Decode(d)
	s.mu.Lock()
	info, ok := s.buffers[req.ID]
	if ok {
		delete(s.buffers, req.ID)
	}
	s.mu.Unlock()
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "buffer %d", req.ID)
	}
	return nil, m.dropBuffer(info)
}

// lookupBuffer resolves a session-scoped buffer handle.
func (s *session) lookupBuffer(id uint64) (bufferInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.buffers[id]
	if !ok {
		return bufferInfo{}, ocl.Errf(ocl.ErrInvalidMemObject, "buffer %d", id)
	}
	return info, nil
}

func (s *session) createProgram(board *fpga.Board, d *wire.Decoder) ([]byte, error) {
	var req wire.CreateProgramRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed CreateProgram: %v", err)
	}
	spec, err := board.Catalog().Parse(req.Binary)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if _, ok := s.contexts[req.Context]; !ok {
		s.mu.Unlock()
		return nil, ocl.Errf(ocl.ErrInvalidContext, "program: context %d", req.Context)
	}
	id := s.newID()
	s.programs[id] = programInfo{binary: req.Binary, bitID: spec.ID, spec: spec}
	s.mu.Unlock()

	e := wire.GetEncoder(64)
	(&wire.CreateProgramResponse{ID: id, Kernels: spec.KernelNames()}).Encode(e)
	return e.Detach(), nil
}

// programBinary returns the binary and bitstream ID of a program handle.
func (s *session) programBinary(id uint64) ([]byte, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.programs[id]
	if !ok {
		return nil, "", ocl.Errf(ocl.ErrInvalidProgram, "program %d", id)
	}
	return p.binary, p.bitID, nil
}

func (s *session) createKernel(d *wire.Decoder) ([]byte, error) {
	var req wire.CreateKernelRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed CreateKernel: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.programs[req.Program]
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidProgram, "kernel: program %d", req.Program)
	}
	spec, err := p.spec.Kernel(req.Name)
	if err != nil {
		return nil, err
	}
	id := s.newID()
	s.kernels[id] = &kernelState{
		name:    spec.Name,
		numArgs: spec.NumArgs,
		args:    make([]ocl.Arg, spec.NumArgs),
		set:     make([]bool, spec.NumArgs),
	}
	return encodeID(id), nil
}

func (s *session) releaseKernel(d *wire.Decoder) ([]byte, error) {
	var req wire.IDRequest
	req.Decode(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kernels[req.ID]; !ok {
		return nil, ocl.Errf(ocl.ErrInvalidKernel, "kernel %d", req.ID)
	}
	delete(s.kernels, req.ID)
	return nil, nil
}

func (s *session) setKernelArg(d *wire.Decoder) ([]byte, error) {
	var req wire.SetKernelArgRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed SetKernelArg: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.kernels[req.Kernel]
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidKernel, "kernel %d", req.Kernel)
	}
	if int(req.Index) >= k.numArgs {
		return nil, ocl.Errf(ocl.ErrInvalidArgIndex,
			"kernel %q has %d args, index %d", k.name, k.numArgs, req.Index)
	}
	arg := req.Arg
	if arg.Kind == ocl.ArgBuffer {
		// Translate the session-scoped buffer handle to the board handle
		// now; a dangling handle fails fast at SetArg like real OpenCL.
		info, ok := s.buffers[arg.BufferID]
		if !ok {
			return nil, ocl.Errf(ocl.ErrInvalidMemObject, "arg %d: buffer %d", req.Index, arg.BufferID)
		}
		arg.BufferID = info.boardID
	}
	k.args[req.Index] = arg
	k.set[req.Index] = true
	return nil, nil
}

func (s *session) setupShm(d *wire.Decoder) ([]byte, error) {
	var req wire.SetupShmRequest
	req.Decode(d)
	if err := d.Err(); err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "malformed SetupShm: %v", err)
	}
	seg, err := shm.Open(req.Path, req.Size)
	if err != nil {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "shm open: %v", err)
	}
	s.mu.Lock()
	if s.seg != nil {
		s.seg.Close()
	}
	s.seg = seg
	s.mu.Unlock()
	return nil, nil
}

// segment returns the session's shared-memory segment, if negotiated.
func (s *session) segment() *shm.Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seg
}

// queue returns the state of a session-scoped queue handle.
func (s *session) queue(id uint64) (*queueState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[id]
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidCommandQueue, "queue %d", id)
	}
	return q, nil
}

// sendFail pushes an OpFailed notification, as a batch of one, for a
// command-queue operation that fails outside a running task. Command-queue
// methods never produce unary errors: their failures travel on the event
// path, as in the paper's asynchronous flow.
func (s *session) sendFail(c *rpc.Conn, tag uint64, err error) {
	msg := err.Error()
	e := wire.GetEncoder(64 + len(msg))
	e.U32(1)
	(&wire.OpNotification{Tag: tag, State: wire.OpFailed, Status: int32(ocl.StatusOf(err)), Error: msg}).Encode(e)
	c.Notify(e.Bytes()) // best effort: the client may already be gone
	e.Release()
}
