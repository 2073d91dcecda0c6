package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"sync"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/apps"
	"blastfunction/internal/ocl"
)

// loopbackApp is the benchmark's function, in the shape of apps.SobelApp:
// one context, queue, kernel and buffer pair per instance, one request at
// a time. Per request it writes a payload to the board, runs the loopback
// bitstream's copy kernel and reads the result back: the paper's Fig. 4a
// R/W experiment behind an HTTP handler. Loopback is used instead of
// Sobel or MM because their software kernels would make the benchmark
// measure the simulated FPGA, not the system around it.
type loopbackApp struct {
	mu       sync.Mutex
	ctx      ocl.Context
	q        ocl.CommandQueue
	k        ocl.Kernel
	in, out  ocl.Buffer
	payloads [][]byte
	res      []byte // read-back staging, reused under mu
}

// appTimings are the set-up costs the factory measures.
type appTimings struct {
	buildProgram time.Duration
	createBuffer time.Duration // mean of the two buffers
}

// newLoopback builds the function on the client's first device. wrap, when
// not nil, decorates the command queue (traced runs).
func newLoopback(client ocl.Client, payloads [][]byte, wrap func(ocl.CommandQueue) ocl.CommandQueue) (*loopbackApp, appTimings, error) {
	var tm appTimings
	platforms, err := client.Platforms()
	if err != nil {
		return nil, tm, err
	}
	devs, err := platforms[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil {
		return nil, tm, err
	}
	ctx, err := client.CreateContext(devs[:1])
	if err != nil {
		return nil, tm, err
	}
	start := time.Now()
	prog, err := ctx.CreateProgramWithBinary(devs[0], accel.LoopbackBitstream().Binary())
	if err != nil {
		return nil, tm, err
	}
	if err := prog.Build(""); err != nil {
		return nil, tm, err
	}
	tm.buildProgram = time.Since(start)
	k, err := prog.CreateKernel("copy")
	if err != nil {
		return nil, tm, err
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		return nil, tm, err
	}
	size := len(payloads[0])
	start = time.Now()
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, size, nil)
	if err != nil {
		return nil, tm, err
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, size, nil)
	if err != nil {
		return nil, tm, err
	}
	tm.createBuffer = time.Since(start) / 2
	for i, arg := range []any{in, out, int32(size)} {
		if err := k.SetArg(i, arg); err != nil {
			return nil, tm, err
		}
	}
	if wrap != nil {
		q = wrap(q)
	}
	return &loopbackApp{ctx: ctx, q: q, k: k, in: in, out: out,
		payloads: payloads, res: make([]byte, size)}, tm, nil
}

// process round-trips payload idx through the board and returns the CRC32
// of the bytes read back.
func (a *loopbackApp) process(idx int) (uint32, error) {
	if idx < 0 || idx >= len(a.payloads) {
		return 0, fmt.Errorf("loopback: payload %d of %d", idx, len(a.payloads))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.q.EnqueueWriteBuffer(a.in, false, 0, a.payloads[idx], nil); err != nil {
		return 0, err
	}
	if _, err := a.q.EnqueueTask(a.k, nil); err != nil {
		return 0, err
	}
	if _, err := a.q.EnqueueReadBuffer(a.out, false, 0, a.res, nil); err != nil {
		return 0, err
	}
	if err := a.q.Finish(); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(a.res), nil
}

// loopbackHandler serves the function over HTTP like apps.SobelHandler:
// ?p= selects the payload, the reply is an apps.Reply carrying the CRC.
func loopbackHandler(app *loopbackApp) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idx, _ := strconv.Atoi(r.URL.Query().Get("p"))
		start := time.Now()
		sum, err := app.process(idx)
		rep := apps.Reply{Function: "loopback", Checksum: sum,
			Millis: float64(time.Since(start).Microseconds()) / 1000}
		if err != nil {
			rep.Error = err.Error()
			w.WriteHeader(http.StatusInternalServerError)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
}

// tracedQueue decorates the function's command queue in traced runs: each
// call into the Remote Library becomes a span, and Finish is split with
// the connection probe's timestamps into the manager's service time, the
// notification's way back and the wake-up of the waiting goroutine.
type tracedQueue struct {
	ocl.CommandQueue
	rec         *recorder
	probe       *connProbe
	writeNanos0 int64 // probe.clientWriteNanos when the request began
}

func (q *tracedQueue) EnqueueWriteBuffer(b ocl.Buffer, blocking bool, offset int, data []byte, wl []ocl.Event) (ocl.Event, error) {
	// First call of a request: start from clean marks.
	q.probe.resetMarks()
	q.writeNanos0 = q.probe.clientWriteNanos.Load()
	id := q.rec.begin(spanWrite)
	defer q.rec.end(id)
	return q.CommandQueue.EnqueueWriteBuffer(b, blocking, offset, data, wl)
}

func (q *tracedQueue) EnqueueTask(k ocl.Kernel, wl []ocl.Event) (ocl.Event, error) {
	id := q.rec.begin(spanKernel)
	defer q.rec.end(id)
	return q.CommandQueue.EnqueueTask(k, wl)
}

func (q *tracedQueue) EnqueueReadBuffer(b ocl.Buffer, blocking bool, offset int, dst []byte, wl []ocl.Event) (ocl.Event, error) {
	id := q.rec.begin(spanRead)
	defer q.rec.end(id)
	return q.CommandQueue.EnqueueReadBuffer(b, blocking, offset, dst, wl)
}

func (q *tracedQueue) Finish() error {
	id := q.rec.begin(spanFinish)
	err := q.CommandQueue.Finish()
	returned := q.probe.now()
	first := q.probe.firstClientWrite.Load()
	flushRead := q.probe.flushRead.Load()
	completion := q.probe.lastServerWrite.Load()
	woke := q.probe.lastClientRead.Load()
	// A heartbeat interleaving with the request can scramble the marks;
	// such a request keeps its Finish span whole.
	if 0 < first && first <= flushRead && flushRead <= completion && completion <= woke && woke <= returned {
		q.rec.child(id, spanService, flushRead, completion)
		q.rec.child(id, spanDownlink, completion, woke)
		q.rec.child(id, spanWake, woke, returned)
		q.rec.child(overlay, spanUplink, first, flushRead)
		q.rec.child(overlay, spanClientWrite, first, first+q.probe.clientWriteNanos.Load()-q.writeNanos0)
	}
	q.rec.end(id)
	return err
}
