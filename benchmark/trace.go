package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in this package: spans are recorded by wrappers
// around public calls into each layer (HTTP middleware, endpoint wrapper,
// command-queue decorator, net.Conn wrappers). Nothing inside the program
// is instrumented; that is a later issue.

// span is one timed interval of one request. Start and End are
// nanoseconds since the recorder's base; Parent is the ID of the span
// that caused it (-1 for the request root).
type span struct {
	Req    uint32 `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. A layer's metric is the self time of its span.
const (
	spanRequest  = "request"               // client round trip; self = http
	spanGateway  = "gateway"               // gateway.Handler().ServeHTTP
	spanApps     = "apps"                  // the endpoint's handler
	spanWrite    = "remote.enqueue_write"  // CommandQueue.EnqueueWriteBuffer
	spanKernel   = "remote.enqueue_kernel" // CommandQueue.EnqueueTask
	spanRead     = "remote.enqueue_read"   // CommandQueue.EnqueueReadBuffer
	spanFinish   = "remote.finish"         // CommandQueue.Finish
	spanService  = "manager.service"       // flush read by the server -> completion write starts
	spanDownlink = "rpc.downlink"          // completion write starts -> client conn Read returns it
	spanWake     = "remote.wake"           // client conn Read returned -> Finish returns

	// Overlay spans cut across the tree (they start inside enqueue_write
	// and end inside finish), so they hang under no parent and take no
	// part in the self-time arithmetic.
	spanUplink      = "rpc.uplink"       // first client Write starts -> server has read the flush
	spanClientWrite = "rpc.client_write" // length = time inside client conn Write, whole request
)

// overlay is the parent of spans outside the request tree.
const overlay = int32(-2)

// recorder keeps one tenant's spans in memory. Requests of a tenant are
// serial (one connection), so the open spans form a stack and a span's
// parent is whatever is open when it begins, even though the spans of one
// request are recorded from three goroutines (load generator, HTTP server,
// none concurrently). A nil recorder records nothing.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	open  []int32
	req   uint32
}

func newRecorder(base time.Time, capacity int) *recorder {
	return &recorder{base: base, spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open span; a span opened with
// nothing open starts a new request.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.req++
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: now})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n > 0 && r.open[n-1] == id {
		r.open = r.open[:n-1]
		r.spans[id].End = now
	}
}

// child records an already finished span under parent from timestamps
// taken elsewhere (the connection probe).
func (r *recorder) child(parent int32, name string, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Req: r.req, ID: int32(len(r.spans)), Parent: parent,
		Name: name, Start: start, End: end})
}

// snapshot returns the finished spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns the self time in nanoseconds of every span (parallel
// to spans): its duration minus the part its children cover. Children are
// clipped to the parent's interval; siblings are assumed not to overlap
// (requests are serial).
func selfTimes(spans []span) []int64 {
	index := make(map[int32]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
	}
	for i := range spans {
		s := &spans[i]
		pi, ok := index[s.Parent]
		if !ok {
			continue
		}
		p := &spans[pi]
		if start, end := max(s.Start, p.Start), min(s.End, p.End); end > start {
			self[pi] -= end - start
		}
	}
	return self
}

// spanNames fixes the order of a breakdown's columns; spanColumn is its
// inverse.
var spanNames = [...]string{spanRequest, spanGateway, spanApps, spanWrite, spanKernel, spanRead,
	spanFinish, spanService, spanDownlink, spanWake, spanUplink, spanClientWrite}

var spanColumn = func() map[string]int {
	m := make(map[string]int, len(spanNames))
	for c, name := range spanNames {
		m[name] = c
	}
	return m
}()

// breakdown is one traced request: its round trip and, per span name (in
// spanNames order), the span's self time and full duration in
// nanoseconds. A request's self times add up to its total exactly.
type breakdown struct {
	total     float64
	self, dur [len(spanNames)]float64
	seen      int // how many of the named spans the request has
}

// breakdowns groups spans by request. Requests without a root are dropped.
func breakdowns(spans []span) []breakdown {
	self := selfTimes(spans)
	byReq := make(map[uint32]*breakdown)
	for i := range spans {
		c, ok := spanColumn[spans[i].Name]
		if !ok {
			continue
		}
		b := byReq[spans[i].Req]
		if b == nil {
			b = &breakdown{}
			byReq[spans[i].Req] = b
		}
		b.self[c] += float64(self[i])
		b.dur[c] += float64(spans[i].End - spans[i].Start)
		b.seen++
		if spans[i].Name == spanRequest {
			b.total = b.dur[c]
		}
	}
	out := make([]breakdown, 0, len(byReq))
	for _, b := range byReq {
		if b.total > 0 {
			out = append(out, *b)
		}
	}
	return out
}

// typical averages the complete requests whose round trip lies in the
// middle fifth (40th to 60th percentile). Unlike medians taken column by
// column, the columns of a mean still add up to its total, and a band
// this narrow keeps that total within a few percent of the median even
// when the distribution is skewed. complete is the share of requests
// that had every named span.
func typical(bs []breakdown) (mean breakdown, complete float64) {
	var totals []float64
	for _, b := range bs {
		if b.seen == len(spanNames) {
			totals = append(totals, b.total)
		}
	}
	if len(totals) == 0 {
		return mean, 0
	}
	sort.Float64s(totals)
	lo, hi := percentile(totals, 40), percentile(totals, 60)
	n := 0.0
	for _, b := range bs {
		if b.seen != len(spanNames) || b.total < lo || b.total > hi {
			continue
		}
		n++
		mean.total += b.total
		for c := range spanNames {
			mean.self[c] += b.self[c]
			mean.dur[c] += b.dur[c]
		}
	}
	mean.total /= n
	for c := range spanNames {
		mean.self[c] /= n
		mean.dur[c] /= n
	}
	return mean, float64(len(totals)) / float64(len(bs))
}

// connProbe observes one library-to-manager connection from both ends.
// Totals accumulate for the whole run; the marks are the timestamps
// (nanoseconds since base, 0 = unset) of the current request, reset by the
// command-queue decorator between requests. All fields are atomic because
// the two ends run on different goroutines (application, client read
// loop, server serve loop, manager worker).
type connProbe struct {
	base time.Time

	clientWrites, clientReads atomic.Int64
	serverWrites, serverReads atomic.Int64
	bytesUp, bytesDown        atomic.Int64
	clientWriteNanos          atomic.Int64

	firstClientWrite atomic.Int64 // first client Write of the request starts
	flushRead        atomic.Int64 // last server Read return before the server's first Write
	lastServerWrite  atomic.Int64 // last server Write starts (the completion batch)
	lastClientRead   atomic.Int64 // last client Read returns
	reqServerWrites  atomic.Int64
}

func (p *connProbe) now() int64 { return int64(time.Since(p.base)) }

// resetMarks forgets the finished request's timestamps.
func (p *connProbe) resetMarks() {
	p.firstClientWrite.Store(0)
	p.flushRead.Store(0)
	p.lastServerWrite.Store(0)
	p.lastClientRead.Store(0)
	p.reqServerWrites.Store(0)
}

// clientConn is the library's end, installed through
// remote.Config.DialConn. Because it is not a *net.TCPConn, the rpc
// frame writer's vectored write degrades to one Write per segment; the
// per-request write count of a traced run therefore counts segments of
// large frames, an upper bound on the untraced syscall count.
type clientConn struct {
	net.Conn
	p *connProbe
}

func (c *clientConn) Write(b []byte) (int, error) {
	start := c.p.now()
	c.p.firstClientWrite.CompareAndSwap(0, start)
	n, err := c.Conn.Write(b)
	c.p.clientWrites.Add(1)
	c.p.bytesUp.Add(int64(n))
	c.p.clientWriteNanos.Add(c.p.now() - start)
	return n, err
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.clientReads.Add(1)
	c.p.lastClientRead.Store(c.p.now())
	return n, err
}

// probeTable pairs the two ends of a connection: the client end registers
// its probe under its local address, the server end finds it under the
// accepted connection's remote address.
type probeTable struct{ m sync.Map }

func (t *probeTable) register(local net.Addr, p *connProbe) { t.m.Store(local.String(), p) }

// serverConn is the manager's end, installed through rpc.Server.WrapConn.
// The probe is resolved on first use: by the time bytes arrive, the
// client end has registered.
type serverConn struct {
	net.Conn
	table *probeTable
	p     atomic.Pointer[connProbe] // Read and Write run on different goroutines
}

func (c *serverConn) probe() *connProbe {
	if p := c.p.Load(); p != nil {
		return p
	}
	if v, ok := c.table.m.Load(c.Conn.RemoteAddr().String()); ok {
		c.p.Store(v.(*connProbe))
	}
	return c.p.Load()
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if p := c.probe(); p != nil {
		p.serverReads.Add(1)
		if p.reqServerWrites.Load() == 0 {
			p.flushRead.Store(p.now())
		}
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	p := c.probe()
	if p != nil {
		p.reqServerWrites.Add(1)
		p.lastServerWrite.Store(p.now())
	}
	n, err := c.Conn.Write(b)
	if p != nil {
		p.serverWrites.Add(1)
		p.bytesDown.Add(int64(n))
	}
	return n, err
}
