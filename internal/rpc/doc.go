// Package rpc is the control/data transport between the Remote OpenCL
// Library and the Device Managers — the reproduction's stand-in for gRPC.
//
// It provides what the paper's flows need and nothing more:
//
//   - unary calls (context and information methods), matched to responses
//     by request ID;
//   - fire-and-forget requests (command-queue methods), whose progress
//     comes back as server-pushed notifications keyed by a client-chosen
//     tag — the paper's "pointer to the newly created event";
//   - a client read loop that hands each notification to the client's
//     NotifyHandler as it arrives: for the Remote Library that goroutine is
//     the paper's connection thread (Figure 2), which advances the event
//     state machines, and there is no queue between the two.
//
// Requests on one connection are processed strictly in order by the
// server, which the Device Manager relies on for command-queue
// consistency ("if any operation is received or executed in the wrong
// order ... the results of the execution will change").
//
// # Frame format
//
// Every frame is a 5-byte header followed by the payload:
//
//	offset  size  field
//	0       4     payload length, little-endian uint32
//	4       1     frame type
//	5       n     payload
//
// Frame types:
//
//	1  request        u64 request ID + u16 method + method-encoded body.
//	                  Request ID 0 marks a fire-and-forget request (no
//	                  response frame will be produced).
//	2  response       u64 request ID + i32 status + string error +
//	                  method-encoded body.
//	4  notify         server push: one wire.OpNotificationBatch, u32
//	                  count followed by that many consecutive
//	                  wire.OpNotification encodings. The client reads a
//	                  frame past its buffer as a batch (see "Read
//	                  path"); a smaller one is opaque to this package.
//
// Any other type (3 included) closes the connection. Hello is a skew
// guard, not a negotiation: both ends speak wire.ProtoVersion and refuse a
// peer that does not.
//
// # Write path
//
// A frame leaves in one vectored write (writev on TCP): its header and the
// segments that fit the writer's 8 KiB buffer are copied, larger segments
// go from where they lie, so bulk data crosses the transport without an
// intermediate concatenation copy.
//
// Client.SendDelayed, the Remote Library's send for the four enqueue
// methods, delays small frames: a frame of at most 4 KiB (smallFrameMax, the
// copy cut-over) is copied and waits while the waiting bytes stay within one
// such frame, and the next write on the connection (Send for the flush,
// Call, a heartbeat) carries it in front of its own frame. A larger frame
// goes out at once, behind whatever waits. Every frame passes the client's
// write lock in issue order, so wire order is issue order: the manager still
// sees a kernel before a later SetKernelArg, an operation before a release.
// A 3-op task and its flush are one write, not four. No wire change: the
// bytes are the same, only fewer writes carry them. A write that carries
// waiting frames and fails fails the client, so the Remote Library's
// connection-loss sweep fails their events with ErrManagerDown.
//
// # Read path
//
// Each connection's read loop, server and client, pulls frames through one
// small buffered reader sized to the largest coalesced frame, so the header
// and payload of a control frame — usually several control frames — arrive
// in one Read. A payload larger than that buffer is read from the
// connection straight into its pooled buffer, except a notification frame
// on the client: that one is streamed through wire.ReadNotificationBatch,
// and each Data NotifyHandler.Land takes is read from the connection
// straight into the slice it names — for the Remote Library, the buffer of
// the inline read it completes.
//
// The client has one goroutine per connection, its read loop. It matches
// a response to its pending call and hands a notification to
// NotifyHandler.Notify, in arrival order, before it reads the next frame;
// when the connection goes, it calls NotifyHandler.Lost once, after the
// last Notify. A response therefore never overtakes an earlier
// notification, and the read loop never waits on a consumer.
//
// The handler's rule: nothing Land, Notify or Lost runs may wait on a frame
// of its own connection — no Call, and no lock that is held across a
// Call, a send or a socket write — because the read loop that would read
// that frame is the one running the handler. The Remote Library keeps it:
// its handler takes only short critical sections (its tag table's lock,
// an event's lock, a command queue's lock in reuseFlightEvs, the shm
// arena's lock, the flight recorder's and the logger's), and
// none of those is held across a send, a Call or a socket write. A slow
// handler delays every later frame of its connection, responses included.
//
// # Frame limits
//
// A header is five bytes and a length in it is only a claim, so the reader
// bounds what a claim can cost before the bytes exist:
//
//   - While the server's handler has attached no session to the connection
//     (Conn.Session() == nil; for the Device Manager, before Hello), a
//     frame may carry at most 4 KiB. A larger header closes the connection
//     with ErrFrameTooLarge and a Warn log naming the peer; nothing is
//     allocated for it. A handler that wants large frames attaches its
//     session first.
//   - With a session, and always on the client (which chose its manager),
//     the limit is MaxFrameBytes. Up to the pool's largest class (4 MiB) the
//     buffer is taken from the pool at the claimed size; beyond it the
//     buffer starts at 64 KiB and doubles as bytes arrive (wire.ReadBuf), so
//     a truncated giant frame costs a small multiple of what was sent.
//
// # Optional fields
//
// Some method bodies end in optional fields that are not encoded when
// zero: a Hello's weight, a CreateBuffer's content hash, a DeviceInfo's
// reconfiguration time, and the 8-byte trace ID of a sampled
// command-queue request (fewer trailing bytes decode as untraced).
// Decoders probe the remaining length. The transport moves them like any
// other payload bytes. The trace ID is all that crosses: each process
// records its part of a sampled task as milestones of one flight keyed by
// that ID (internal/flightrec), served at /debug/flight?trace=.
//
// # Buffer ownership
//
// Frame payloads and encoder buffers come from the size-classed pool in
// package wire (wire.GetBuf / wire.PutBuf). Each buffer has exactly one
// owner at a time, and one rule holds at every release site: what goes back
// to the pool is the slice the pool (or readFrame) handed out — the frame —
// never a header-stripped view of it. A view has a smaller capacity, so
// releasing views shrank a buffer by a header's worth per cycle until it
// fell out of its class; with frames released whole, a buffer keeps its
// class for life and the classes need no slack. Owners that decode a view
// keep the frame next to it. The hand-off points:
//
//   - Client.Call: the returned body is the response frame itself, with the
//     body moved to its front (unary bodies are a few fields). The caller
//     releases that slice with wire.PutBuf after decoding (values decoded
//     by aliasing must be dead or copied first).
//   - NotifyHandler.Notify: the payload stays the read loop's, which
//     releases it once Notify returns; the handler copies whatever must
//     outlive the call (the Remote Library copies read results into the
//     caller's buffer inside Notify). It is the frame itself, or, for a
//     notification frame larger than the read loop's buffer, the batch
//     re-encoded without the Data Land took: those notifications arrive
//     with empty Data, their bytes already in Land's slices, which the read
//     loop wrote before the Notify call and never touches again.
//   - Server handlers: the body passed to HandleRequest is a view of the
//     request frame, which the server releases when the handler returns.
//     A handler that needs the payload to outlive the request (the
//     manager's inline EnqueueWrite data) calls Conn.RetainRequestPayload,
//     which returns the frame and makes the handler its owner: the manager
//     keeps it in the queued operation beside the data view and releases
//     the frame once the bytes are on the board or the operation is
//     dropped.
//   - Handler responses: the returned body's ownership transfers to the
//     server, which releases it after writing the response frame. Return
//     a buffer owned exclusively by the handler (wire.Encoder.Detach), or
//     nil — never a slice aliasing the request body or shared storage.
//   - Conn.Notify: segments are only read during the call and never
//     retained; the caller keeps ownership. Board read results ride out
//     this way, either as a view of board memory (a read no later op of
//     its task writes over; the worker writes no board buffer until
//     Notify has returned) or as the wire.GetBuf copy the worker filled,
//     which the notify batcher releases after the write.
package rpc
