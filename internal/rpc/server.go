package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"blastfunction/internal/logx"
	"blastfunction/internal/ocl"
	"blastfunction/internal/wire"
)

// Handler implements a service exposed through a Server. The Device
// Manager is the only production implementation; tests provide fakes.
type Handler interface {
	// HandleConnect runs when a client connects, before any request.
	HandleConnect(c *Conn)
	// HandleRequest processes one request and returns the response body.
	// Returning an error produces an error response carrying the
	// ocl.Status extracted from it. Requests on a connection are
	// dispatched sequentially in arrival order.
	//
	// body aliases the request frame's pooled buffer, which the server
	// releases after the handler returns unless the handler took it with
	// c.RetainRequestPayload. The returned response body's ownership
	// transfers to the server (released after the response is written):
	// return a buffer the handler owns exclusively — typically
	// wire.Encoder.Detach — or nil, never a slice aliasing body or shared
	// storage.
	HandleRequest(c *Conn, method wire.Method, body []byte) ([]byte, error)
	// HandleDisconnect runs after the connection closed, for cleanup of
	// per-client resource pools.
	HandleDisconnect(c *Conn)
}

// Conn is the server-side view of one client connection.
type Conn struct {
	raw net.Conn

	writeMu sync.Mutex
	closed  bool
	fw      frameWriter

	// frame is the pooled buffer of the request being handled; serveConn
	// releases it after HandleRequest unless RetainRequestPayload took it
	// (and left nil here). Both run on the connection's serve goroutine, so
	// no lock is needed.
	frame []byte

	sessionMu sync.Mutex
	session   any
}

// SetSession attaches service-private state to the connection.
func (c *Conn) SetSession(v any) {
	c.sessionMu.Lock()
	defer c.sessionMu.Unlock()
	c.session = v
}

// Session returns the state attached with SetSession.
func (c *Conn) Session() any {
	c.sessionMu.Lock()
	defer c.sessionMu.Unlock()
	return c.session
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// RetainRequestPayload transfers ownership of the current request's frame
// buffer from the server to the handler and returns it: the server will
// not release it when HandleRequest returns, and the handler (or whoever it
// hands the frame to) must wire.PutBuf that returned slice once everything
// aliasing it — the handler's body, values decoded from it — is consumed.
// Only valid while inside HandleRequest, once per request.
func (c *Conn) RetainRequestPayload() []byte {
	f := c.frame
	c.frame = nil
	return f
}

// Notify pushes a notification frame whose payload is the concatenation
// of segs (written without an intermediate copy). Safe for concurrent
// use; the Device Manager's worker calls it from outside the request
// loop. Segments are not retained past the call.
func (c *Conn) Notify(segs ...[]byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return errors.New("rpc: connection closed")
	}
	return c.fw.writeFrame(false, frameNotify, nil, segs...)
}

func (c *Conn) respond(reqID uint64, status ocl.Status, errMsg string, body []byte) error {
	e := wire.GetEncoder(len(errMsg) + 16)
	e.U64(reqID)
	e.I32(int32(status))
	e.String(errMsg)
	c.writeMu.Lock()
	if c.closed {
		c.writeMu.Unlock()
		e.Release()
		return errors.New("rpc: connection closed")
	}
	err := c.fw.writeFrame(false, frameResponse, e.Bytes(), body)
	c.writeMu.Unlock()
	e.Release()
	return err
}

// Close terminates the connection.
func (c *Conn) Close() error {
	c.writeMu.Lock()
	c.closed = true
	c.writeMu.Unlock()
	return c.raw.Close()
}

// Server accepts connections and dispatches requests to a Handler.
type Server struct {
	handler Handler
	// Log receives transport-level failures as structured events;
	// defaults to logx.Default("rpc"). Set before Serve/Listen.
	Log *logx.Logger
	// WrapConn, when set, wraps every accepted connection before it is
	// served. Chaos tests install a FaultConn here to inject transport
	// failures on the manager side. Set before Serve/Listen.
	WrapConn func(net.Conn) net.Conn

	mu    sync.Mutex
	ln    net.Listener
	conns map[*Conn]struct{}
	done  bool
}

// NewServer creates a server for the handler.
func NewServer(h Handler) *Server {
	return &Server{handler: h, Log: logx.Default("rpc"), conns: make(map[*Conn]struct{})}
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		if s.WrapConn != nil {
			raw = s.WrapConn(raw)
		}
		conn := &Conn{raw: raw}
		conn.fw.w = raw
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			raw.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Listen starts serving on a fresh TCP listener bound to addr (use
// "127.0.0.1:0" for tests) and returns the bound address. Serving proceeds
// on a background goroutine until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			s.Log.Error("rpc server: serve failed", "err", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and closes every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.done = true
	ln := s.ln
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) serveConn(c *Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.handler.HandleDisconnect(c)
	}()
	s.handler.HandleConnect(c)
	r := newFrameReader(c.raw)
	limit := preSessionFrameMax
	for {
		if limit == preSessionFrameMax && c.Session() != nil {
			limit = MaxFrameBytes
		}
		typ, payload, err := readFrame(r, limit)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.Log.Warn("rpc server: closing connection", "peer", c.RemoteAddr().String(), "err", err)
			}
			return
		}
		if typ != frameRequest {
			wire.PutBuf(payload)
			s.Log.Warn("rpc server: unexpected frame type", "type", int(typ), "peer", c.RemoteAddr().String())
			return
		}
		if len(payload) < 10 {
			wire.PutBuf(payload)
			s.Log.Warn("rpc server: short request", "peer", c.RemoteAddr().String())
			return
		}
		reqID := binary.LittleEndian.Uint64(payload[:8])
		method := wire.Method(binary.LittleEndian.Uint16(payload[8:10]))
		c.frame = payload
		resp, err := s.handle(c, method, payload[10:])
		if err == errHandlerPanicked {
			return
		}
		if reqID == 0 {
			// Fire-and-forget request: any error already travelled to the
			// client as an OpFailed notification from the handler.
			wire.PutBuf(c.frame) // nil (a no-op) if the handler retained it
			continue
		}
		var werr error
		if err != nil {
			werr = c.respond(reqID, ocl.StatusOf(err), err.Error(), nil)
		} else {
			werr = c.respond(reqID, ocl.Success, "", resp)
		}
		wire.PutBuf(c.frame)
		wire.PutBuf(resp) // handler responses are owned buffers; see Handler
		if werr != nil {
			return
		}
	}
}

// errHandlerPanicked is handle's result for a request whose handler
// panicked; it never reaches the client.
var errHandlerPanicked = errors.New("rpc: handler panicked")

// handle runs the handler on one request. A handler panic is contained
// to the connection that sent the request: it is logged, and serveConn
// closes that connection, after which HandleDisconnect reclaims its
// session. The request frame is not returned to the pool: the handler
// may have retained it before panicking.
func (s *Server) handle(c *Conn, method wire.Method, body []byte) (resp []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.Log.Error("rpc server: handler panicked, closing connection",
				"method", method.String(), "peer", c.RemoteAddr().String(), "panic", fmt.Sprint(v))
			resp, err = nil, errHandlerPanicked
		}
	}()
	return s.handler.HandleRequest(c, method, body)
}

// String describes the server for logs.
func (s *Server) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return "rpc.Server(idle)"
	}
	return fmt.Sprintf("rpc.Server(%s)", s.ln.Addr())
}
