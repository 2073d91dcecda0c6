package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/ocl"
	"blastfunction/internal/wire"
)

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("rpc: client closed")

// ErrManagerDown marks errors caused by a lost or poisoned Device Manager
// connection: the transport failed underneath the caller, as opposed to
// the manager answering with an application error. Every error the client
// returns after its connection drops matches this sentinel under
// errors.Is, so callers can distinguish "the board's manager died" (fail
// over, migrate) from "my request was bad" (don't retry).
var ErrManagerDown = errors.New("rpc: manager down")

// ErrDeadlineExceeded marks a unary call that hit its per-call deadline
// while the connection itself stayed up — the manager is wedged or slow.
// Idempotent calls may be retried (see CallRetry); the late response, if
// it ever arrives, is discarded.
var ErrDeadlineExceeded = errors.New("rpc: call deadline exceeded")

// DefaultCallTimeout bounds unary calls. Board reconfiguration is the
// slowest legitimate call at a few seconds; anything beyond a minute is a
// wedged manager.
const DefaultCallTimeout = time.Minute

// NotifyHandler takes a client's notifications. The client's read loop
// calls it, one frame at a time and in arrival order, so nothing it runs
// may wait on a frame of the same connection (see "Read path" in the
// package doc).
type NotifyHandler interface {
	// Land is the wire.Lander of notification frames larger than the read
	// loop's buffer: the slice a notification's Data is read into straight
	// from the connection, or nil to keep the Data in the payload.
	Land(tag uint64, n int) []byte
	// Notify takes one notification payload, a wire.OpNotificationBatch.
	// The payload is the read loop's, released once Notify returns.
	Notify(payload []byte)
	// Lost runs once, after the last Notify, when the connection is gone.
	Lost()
}

// Client is the Remote OpenCL Library's connection to one Device Manager.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex
	fw      frameWriter
	reqHdr  [10]byte // request header scratch, guarded by writeMu

	reqID atomic.Uint64

	pendingMu sync.Mutex
	pending   map[uint64]chan callResult
	closedErr error

	h NotifyHandler // takes the notifications, on the read loop

	dec wire.Decoder // response decoder scratch, used only by readLoop

	// CallTimeout bounds unary calls; zero means DefaultCallTimeout.
	CallTimeout time.Duration
}

type callResult struct {
	body []byte
	err  error
}

// NewClient wraps an established connection and starts its read loop,
// which hands every notification to h.
func NewClient(conn net.Conn, h NotifyHandler) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]chan callResult),
		h:       h,
	}
	c.fw.w = conn
	go c.readLoop()
	return c
}

// Call performs a unary request and waits for the response body. The body
// is assembled from segs without copying. The returned body is the
// response's pooled frame buffer (see dispatchResponse): the caller
// releases that slice with wire.PutBuf once decoded values aliasing it are
// dead.
func (c *Client) Call(method wire.Method, segs ...[]byte) ([]byte, error) {
	return c.CallWithTimeout(method, 0, segs...)
}

// CallWithTimeout is Call with an explicit per-call deadline; zero selects
// the client's CallTimeout (then DefaultCallTimeout). On expiry it returns
// an error matching ErrDeadlineExceeded.
func (c *Client) CallWithTimeout(method wire.Method, timeout time.Duration, segs ...[]byte) ([]byte, error) {
	id := c.reqID.Add(1)
	ch := make(chan callResult, 1)
	c.pendingMu.Lock()
	if c.closedErr != nil {
		err := c.closedErr
		c.pendingMu.Unlock()
		return nil, err
	}
	c.pending[id] = ch
	c.pendingMu.Unlock()

	if err := c.send(id, method, false, segs...); err != nil {
		c.pendingMu.Lock()
		delete(c.pending, id)
		c.pendingMu.Unlock()
		// fail may have drained the entry into ch concurrently; a buffered
		// channel makes that send non-blocking either way.
		return nil, err
	}
	if timeout == 0 {
		timeout = c.CallTimeout
	}
	if timeout == 0 {
		timeout = DefaultCallTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.body, res.err
	case <-timer.C:
		c.pendingMu.Lock()
		_, present := c.pending[id]
		delete(c.pending, id)
		c.pendingMu.Unlock()
		if !present {
			// dispatchResponse (or fail) already claimed the entry and is
			// committed to depositing exactly one result into the buffered
			// channel; reclaim its pooled body so the race doesn't bleed
			// pool capacity.
			if res := <-ch; res.body != nil {
				wire.PutBuf(res.body)
			}
		}
		return nil, fmt.Errorf("%w: %s after %v", ErrDeadlineExceeded, method, timeout)
	}
}

// Send performs a fire-and-forget request: no response is expected; the
// server reports progress through notifications. The request body is the
// concatenation of segs, large ones written without an intermediate copy.
// Returns ErrClosed (or the close cause) promptly once the client is
// closed.
func (c *Client) Send(method wire.Method, segs ...[]byte) error {
	return c.send(0, method, false, segs...)
}

// SendDelayed is Send for the command-queue operations, which the manager
// holds until the flush anyway: a small frame waits for the next write on
// the connection (see "Write path" in the package doc).
func (c *Client) SendDelayed(method wire.Method, segs ...[]byte) error {
	return c.send(0, method, true, segs...)
}

func (c *Client) send(reqID uint64, method wire.Method, delay bool, segs ...[]byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	// Check-then-write: fail records its cause before it closes the
	// connection, so a send racing teardown either sees the cause here or
	// gets the write error mapped below.
	if cause := c.closeCause(); cause != nil {
		return cause
	}
	binary.LittleEndian.PutUint64(c.reqHdr[:8], reqID)
	binary.LittleEndian.PutUint16(c.reqHdr[8:10], uint16(method))
	if err := c.fw.writeFrame(delay, frameRequest, c.reqHdr[:], segs...); err != nil {
		if cause := c.closeCause(); cause != nil {
			return cause
		}
		// A failed write means the transport is gone even if readLoop has
		// not observed it yet, and it may have taken delayed frames with it.
		err = fmt.Errorf("%w: send %s: %v", ErrManagerDown, method, err)
		c.fail(err)
		return err
	}
	return nil
}

// closeCause returns the error fail recorded, or nil while the client is
// live.
func (c *Client) closeCause() error {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	return c.closedErr
}

// Close tears the connection down: pending calls fail, and the read loop
// tells the handler the connection is lost.
func (c *Client) Close() error {
	// Record the cause first: closing the socket first let readLoop observe
	// the dead connection and win the race to fail with ErrManagerDown.
	c.fail(ErrClosed)
	if err := c.conn.Close(); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

func (c *Client) readLoop() {
	defer c.h.Lost()
	r := newFrameReader(c.conn)
	for {
		// The client chose this manager, so it takes the manager's word for
		// a frame length up to the protocol maximum.
		typ, n, err := readHeader(r, MaxFrameBytes)
		var payload []byte
		if err == nil {
			if typ == frameNotify && n > smallFrameMax {
				// A malformed batch still yields the notifications before
				// the fault, which are handed on, as if decoded from the
				// whole frame.
				if payload, err = wire.ReadNotificationBatch(r, n, c.h.Land); payload != nil {
					err = nil
				}
			} else {
				payload, err = readPayload(r, n)
			}
		}
		if err != nil {
			c.fail(fmt.Errorf("%w: connection lost: %v", ErrManagerDown, err))
			return
		}
		switch typ {
		case frameResponse:
			c.dispatchResponse(payload)
		case frameNotify:
			c.h.Notify(payload)
			wire.PutBuf(payload)
		default:
			wire.PutBuf(payload)
			c.fail(fmt.Errorf("%w: unexpected frame type %d", ErrManagerDown, typ))
			return
		}
	}
}

func (c *Client) dispatchResponse(payload []byte) {
	d := &c.dec
	d.Reset(payload)
	reqID := d.U64()
	status := ocl.Status(d.I32())
	errMsg := d.String()
	if d.Err() != nil {
		wire.PutBuf(payload)
		c.fail(fmt.Errorf("%w: malformed response: %v", ErrManagerDown, d.Err()))
		return
	}
	bodyOff := len(payload) - d.Remaining()
	c.pendingMu.Lock()
	ch, ok := c.pending[reqID]
	delete(c.pending, reqID)
	c.pendingMu.Unlock()
	if !ok {
		wire.PutBuf(payload) // timed-out call; drop the late response
		return
	}
	if status != ocl.Success {
		wire.PutBuf(payload)
		ch <- callResult{err: ocl.Errf(status, "%s", errMsg)}
		return
	}
	// The caller is handed, and will release, exactly one slice, and it has
	// to be the frame itself (a header-stripped alias would shrink the
	// pooled buffer; see wire/pool.go). Unary response bodies are a few
	// fields, so move the body to the frame's front instead of returning a
	// second value through every Call site.
	ch <- callResult{body: payload[:copy(payload, payload[bodyOff:])]}
}

// fail poisons the client: pending calls receive err, future sends fail
// promptly, and closing the connection ends the read loop.
func (c *Client) fail(err error) {
	c.pendingMu.Lock()
	if c.closedErr != nil {
		c.pendingMu.Unlock()
		return
	}
	c.closedErr = err
	pending := c.pending
	c.pending = make(map[uint64]chan callResult)
	c.pendingMu.Unlock()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
	c.conn.Close()
}
