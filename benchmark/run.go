package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/gateway"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/wire"
)

// workload is one traffic mix and the system configuration it runs on.
type workload struct {
	name string
	why  string
	cfg  systemConfig
}

const (
	lightBytes = 4 << 10
	heavyBytes = 1 << 20
)

// workloads: see README.md for what each is sensitive and blind to. nproc
// is 2 on the reference box, so no workload uses more than two load
// goroutines.
var workloads = []workload{
	{
		name: "small_local",
		why:  "4 KiB over shm, closed loop: fixed per-request cost (HTTP, gateway, framing, dispatch, wake-up) dominates, copies are noise",
		cfg: systemConfig{transport: remote.TransportShm,
			tenants: []tenantSpec{{name: "light", payloadBytes: lightBytes}}},
	},
	{
		name: "bulk_remote",
		why:  "1 MiB inline over the rpc channel (paper's cross-node path), closed loop: payload copies, wire buffer pool, socket I/O and GC dominate",
		cfg: systemConfig{transport: remote.TransportGRPC,
			tenants: []tenantSpec{{name: "heavy", payloadBytes: heavyBytes}}},
	},
	{
		name: "bulk_local",
		why:  "1 MiB over shm (one copy), closed loop: same layers as bulk_remote with the payload bypassing wire and rpc; must stay flat under a framing or pool fix",
		cfg: systemConfig{transport: remote.TransportShm,
			tenants: []tenantSpec{{name: "heavy", payloadBytes: heavyBytes}}},
	},
	{
		name: "shared_board",
		why:  "two rate-limited tenants time-share one board with modelled time slept: central-queue wait and admission decide latency, software savings must not show",
		cfg: systemConfig{transport: remote.TransportShm, timeScale: 1, admission: true,
			tenants: []tenantSpec{
				{name: "light", payloadBytes: lightBytes, rate: 60},
				{name: "heavy", payloadBytes: heavyBytes, rate: 40},
			}},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timing is the shape of a run: replicates of set-up, warm-up load
// (discarded), one measured window, tear-down. Every replicate builds the
// whole system afresh, so whatever a process or a connection settles into
// for its lifetime (socket buffer autotuning, heap size, GC phase) is drawn
// again each time; every statistic is computed per replicate and the median
// of the replicates is reported, which is what makes a run repeat.
type timing struct {
	replicates int
	warmup     time.Duration
	window     time.Duration
}

const (
	numReplicates = 5
	warmup        = time.Second
)

// timingFor splits the driver's -seconds into the standard run shape.
func timingFor(seconds int) timing {
	return timing{replicates: numReplicates, warmup: warmup,
		window: time.Duration(seconds) * time.Second / numReplicates}
}

// newRand derives an independent stream per purpose from the run's seed.
func newRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// counters is what is read when the measured window opens and closes.
type counters struct {
	at         time.Duration // offset from load start
	completed  int64
	cpu        time.Duration // process user+system time
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	gcPause    time.Duration
	heapInuse  uint64
	board      fpga.Stats
	tasks      float64 // bf_tasks_total
	tenantRuns float64 // sum of bf_tenant_tasks_total
	queueWait  float64 // sum of bf_tenant_queue_wait_seconds_total
	rejected   int64
	probes     [6]int64 // client writes, reads, server writes, reads, bytes up, down
}

var probeMetrics = [6]string{"rpc.client_writes_per_req", "rpc.client_reads_per_req",
	"rpc.server_writes_per_req", "rpc.server_reads_per_req", "rpc.bytes_up_per_req", "rpc.bytes_down_per_req"}

func (s *system) readCounters(start time.Time, loads []*tenantLoad) counters {
	var c counters
	// ReadMemStats first: it waits for a running collection and reports the
	// heap as of its own end, so everything read after it lines up with it
	// to within microseconds.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.at = time.Since(start)
	for _, l := range loads {
		c.completed += l.completed.Load()
	}
	c.mallocs, c.totalAlloc = ms.Mallocs, ms.TotalAlloc
	c.numGC, c.gcPause, c.heapInuse = ms.NumGC, time.Duration(ms.PauseTotalNs), ms.HeapInuse
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.board = s.board.Stats()
	reg := s.mgr.Metrics()
	c.tasks = reg.Counter("bf_tasks_total", "", metrics.Labels{"device": deviceID, "node": nodeName}).Value()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.instances {
		if p := in.probe; p != nil {
			for i, v := range []int64{p.clientWrites.Load(), p.clientReads.Load(), p.serverWrites.Load(),
				p.serverReads.Load(), p.bytesUp.Load(), p.bytesDown.Load()} {
				c.probes[i] += v
			}
		}
		lbl := metrics.Labels{"device": deviceID, "node": nodeName, "tenant": in.name}
		c.tenantRuns += reg.Counter("bf_tenant_tasks_total", "", lbl).Value()
		c.queueWait += reg.Counter("bf_tenant_queue_wait_seconds_total", "", lbl).Value()
		c.rejected += s.gw.Stats(in.spec.name).Rejected
	}
	return c
}

// phase is one replicate: what its load generators sampled, the counters
// at both ends of the measured window, and what was read from the live
// system once the load had stopped.
type phase struct {
	start       time.Time // offsets of samples and counters count from here
	loads       []*tenantLoad
	first, last counters

	setup      float64 // seconds: build, deploy, ready, one checked reply per function
	dialMs     float64 // factory timings, averaged over the functions
	buildMs    float64
	bufferUs   float64
	readyMs    float64
	scrapeMs   float64   // one Scraper.ScrapeOnce after the load
	queueWaits []float64 // TaskTrace.QueueWait of the manager's task ring, us
	taskOps    []float64 // TaskTrace.Ops of the same tasks
	spans      []span    // traced replicates: requests begun inside the window
}

// measure applies the workload's load to s for warm-up plus window and
// reads the counters at both ends of the window.
func (s *system) measure(tm timing, replicate int) *phase {
	ph := &phase{}
	horizon := tm.warmup + tm.window
	schedules := make([][]time.Duration, len(s.cfg.tenants))
	for i, t := range s.cfg.tenants {
		l := newTenantLoad(t, s.gwSrv.URL, s.sums(t.name), s.instanceOf(t.name).rec)
		if t.rate > 0 {
			// Each replicate draws its own arrival times, so a run is not
			// hostage to one schedule's bursts.
			stream := fmt.Sprintf("arrivals/%s/%d", t.name, replicate)
			schedules[i] = arrivals(newRand(s.cfg.seed, stream).Int63(), t.rate, horizon)
			l.samples = make([]sample, 0, len(schedules[i]))
		} else {
			l.samples = make([]sample, 0, 1<<16)
		}
		ph.loads = append(ph.loads, l)
	}
	// Every replicate starts its load from a collected heap; twice, because
	// a sync.Pool gives up its contents only on the second collection.
	runtime.GC()
	runtime.GC()
	ph.start = time.Now()
	var wg sync.WaitGroup
	for i, l := range ph.loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(ph.start, horizon, schedules[i])
		}()
	}
	time.Sleep(time.Until(ph.start.Add(tm.warmup)))
	ph.first = s.readCounters(ph.start, ph.loads)
	time.Sleep(time.Until(ph.start.Add(horizon)))
	ph.last = s.readCounters(ph.start, ph.loads)
	wg.Wait()
	for _, l := range ph.loads {
		l.close()
	}
	return ph
}

// sums returns the CRC32 of each of the tenant's payloads.
func (s *system) sums(function string) []uint32 {
	var out []uint32
	for _, p := range s.payloads[function] {
		out = append(out, crc32.ChecksumIEEE(p))
	}
	return out
}

// firstRequests sends one checked request to every function: the end of
// set-up, so lazily built state is paid for before timing starts.
func (s *system) firstRequests() error {
	for _, t := range s.cfg.tenants {
		l := newTenantLoad(t, s.gwSrv.URL, s.sums(t.name), nil)
		ok := l.once(0)
		l.close()
		if !ok {
			return fmt.Errorf("first request failed: %v", l)
		}
	}
	return nil
}

// readOut reads what only the live system can tell, after the load.
func (s *system) readOut(ph *phase) {
	for _, t := range s.mgr.Traces() {
		ph.queueWaits = append(ph.queueWaits, float64(t.QueueWait)/1e3)
		ph.taskOps = append(ph.taskOps, float64(t.Ops))
	}
	s.mu.Lock()
	n := float64(len(s.instances))
	for _, in := range s.instances {
		ph.dialMs += in.dial.Seconds() * 1e3 / n
		ph.buildMs += in.app.buildProgram.Seconds() * 1e3 / n
		ph.bufferUs += in.app.createBuffer.Seconds() * 1e6 / n
		ph.readyMs += in.deployed.Seconds() * 1e3 / n
	}
	s.mu.Unlock()
	start := time.Now()
	s.scraper.ScrapeOnce()
	ph.scrapeMs = time.Since(start).Seconds() * 1e3
	if s.cfg.traced {
		ph.spans = s.tracedSpans(ph)
	}
}

// tracedSpans returns the spans of every request that began and ended
// inside the measured window, all tenants pooled.
func (s *system) tracedSpans(ph *phase) []span {
	from := int64(ph.start.Add(ph.first.at).Sub(s.base))
	to := int64(ph.start.Add(ph.last.at).Sub(s.base))
	var out []span
	s.mu.Lock()
	defer s.mu.Unlock()
	idBase, reqBase := int32(0), uint32(0)
	for _, in := range s.instances {
		spans := in.rec.snapshot()
		keep := make(map[uint32]bool)
		for _, sp := range spans {
			if sp.Name == spanRequest && sp.Start >= from && sp.End < to {
				keep[sp.Req] = true
			}
		}
		nextID, nextReq := idBase, reqBase
		for _, sp := range spans {
			nextID, nextReq = max(nextID, idBase+sp.ID+1), max(nextReq, reqBase+sp.Req+1)
			if !keep[sp.Req] {
				continue
			}
			// Span IDs and request numbers are per tenant; pooled, they
			// must stay unique.
			sp.ID += idBase
			sp.Req += reqBase
			if sp.Parent >= 0 {
				sp.Parent += idBase
			}
			out = append(out, sp)
		}
		idBase, reqBase = nextID, nextReq
	}
	return out
}

// inWindow returns the samples of the tenants accepted by keep (nil: all)
// that finished inside the measured window.
func (ph *phase) inWindow(keep func(tenantSpec) bool) []sample {
	var out []sample
	for _, l := range ph.loads {
		if keep != nil && !keep(l.spec) {
			continue
		}
		for _, sm := range l.samples {
			if sm.done >= ph.first.at && sm.done < ph.last.at {
				out = append(out, sm)
			}
		}
	}
	return out
}

// latencies returns, in milliseconds and sorted, the latency (reply minus
// due time) of every successful request in the window.
func (ph *phase) latencies(keep func(tenantSpec) bool) []float64 {
	var out []float64
	for _, sm := range ph.inWindow(keep) {
		if sm.ok {
			out = append(out, float64(sm.done-sm.due)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (ph *phase) wall() float64 { return (ph.last.at - ph.first.at).Seconds() }

// perRequest divides a counter's growth over the window by the requests
// completed in it.
func (ph *phase) perRequest(delta float64) float64 {
	return delta / math.Max(1, float64(ph.last.completed-ph.first.completed))
}

// over evaluates f on every replicate and reports the median.
func over(phs []*phase, f func(*phase) float64) stat {
	vs := make([]float64, len(phs))
	for i, ph := range phs {
		vs[i] = f(ph)
	}
	return overSlices(vs)
}

// total adds f up over the replicates.
func total(phs []*phase, f func(*phase) float64) stat {
	sum := 0.0
	for _, ph := range phs {
		sum += f(ph)
	}
	return single(sum)
}

// pooled concatenates and sorts f's values of every replicate.
func pooled(phs []*phase, f func(*phase) []float64) []float64 {
	var out []float64
	for _, ph := range phs {
		out = append(out, f(ph)...)
	}
	sort.Float64s(out)
	return out
}

// latencyAt reports the p-th percentile of the kept tenants' latency. A
// p of 0 asks for the tail by the percentile rule: its pick for the
// replicate with the fewest samples, so that every replicate reports the
// same percentile; which one is returned too. No such tenant in the
// workload reports zeros.
func latencyAt(phs []*phase, keep func(tenantSpec) bool, p float64) (stat, float64) {
	fewest := math.MaxInt
	for _, ph := range phs {
		fewest = min(fewest, len(ph.latencies(keep)))
	}
	if fewest == 0 || fewest == math.MaxInt {
		return single(0), 0
	}
	if p == 0 {
		p = tailPercentile(fewest)
	}
	return over(phs, func(ph *phase) float64 { return percentile(ph.latencies(keep), p) }), p
}

func isClass(bytes int) func(tenantSpec) bool {
	return func(t tenantSpec) bool { return t.payloadBytes == bytes }
}

// loadMetrics fills in everything that needs no tracing: the end-to-end
// metrics and the loadgen, gateway, manager, sched, fpga, metrics and
// runtime read-outs.
func loadMetrics(phs []*phase, out map[string]stat) {
	out["setup_s"] = over(phs, func(ph *phase) float64 { return ph.setup })
	out["p50_ms"], _ = latencyAt(phs, nil, 50)
	out["throughput_rps"] = over(phs, func(ph *phase) float64 { return float64(len(ph.latencies(nil))) / ph.wall() })
	out["cpu_us_per_req"] = over(phs, func(ph *phase) float64 { return ph.perRequest(float64(ph.last.cpu-ph.first.cpu) / 1e3) })
	out["allocs_per_req"] = over(phs, func(ph *phase) float64 { return ph.perRequest(float64(ph.last.mallocs - ph.first.mallocs)) })
	out["alloc_kib_per_req"] = over(phs, func(ph *phase) float64 {
		return ph.perRequest(float64(ph.last.totalAlloc-ph.first.totalAlloc) / 1024)
	})

	out["loadgen.sent"] = total(phs, func(ph *phase) float64 { return float64(len(ph.inWindow(nil))) })
	out["loadgen.failed"] = total(phs, func(ph *phase) (n float64) {
		for _, sm := range ph.inWindow(nil) {
			if !sm.ok {
				n++
			}
		}
		return n
	})
	out["loadgen.ok"] = single(out["loadgen.sent"].Value - out["loadgen.failed"].Value)
	out["loadgen.fail_ratio"] = single(out["loadgen.failed"].Value / math.Max(1, out["loadgen.sent"].Value))
	lag := pooled(phs, func(ph *phase) (us []float64) {
		for _, sm := range ph.inWindow(nil) {
			us = append(us, float64(sm.lag)/1e3)
		}
		return us
	})
	out["loadgen.lag_p99_us"] = single(percentile(lag, tailPercentile(len(lag))))
	var tailP float64
	out["loadgen.p95_ms"], _ = latencyAt(phs, nil, 95)
	out["loadgen.p99_ms"], tailP = latencyAt(phs, nil, 0)
	out["loadgen.tail_percentile"] = single(tailP)
	for class, bytes := range map[string]int{"light": lightBytes, "heavy": heavyBytes} {
		out["loadgen."+class+"_p50_ms"], _ = latencyAt(phs, isClass(bytes), 50)
		out["loadgen."+class+"_p99_ms"], _ = latencyAt(phs, isClass(bytes), 0)
	}

	out["gateway.rejected"] = total(phs, func(ph *phase) float64 { return float64(ph.last.rejected - ph.first.rejected) })
	out["gateway.deploy_ready_ms"] = over(phs, func(ph *phase) float64 { return ph.readyMs })
	out["remote.dial_ms"] = over(phs, func(ph *phase) float64 { return ph.dialMs })
	out["remote.build_program_ms"] = over(phs, func(ph *phase) float64 { return ph.buildMs })
	out["remote.create_buffer_us"] = over(phs, func(ph *phase) float64 { return ph.bufferUs })
	out["manager.tasks"] = total(phs, func(ph *phase) float64 { return ph.last.tasks - ph.first.tasks })
	out["sched.queue_wait_mean_us"] = over(phs, func(ph *phase) float64 {
		return (ph.last.queueWait - ph.first.queueWait) / math.Max(1, ph.last.tenantRuns-ph.first.tenantRuns) * 1e6
	})
	out["fpga.util"] = over(phs, func(ph *phase) float64 {
		return (ph.last.board.BusyTime - ph.first.board.BusyTime).Seconds() / ph.wall()
	})
	out["fpga.bytes_in"] = total(phs, func(ph *phase) float64 { return float64(ph.last.board.BytesIn - ph.first.board.BytesIn) })
	out["fpga.bytes_out"] = total(phs, func(ph *phase) float64 { return float64(ph.last.board.BytesOut - ph.first.board.BytesOut) })
	out["metrics.scrape_once_ms"] = over(phs, func(ph *phase) float64 { return ph.scrapeMs })
	out["runtime.gc_count"] = over(phs, func(ph *phase) float64 { return float64(ph.last.numGC - ph.first.numGC) })
	out["runtime.gc_pause_total_ms"] = over(phs, func(ph *phase) float64 { return float64(ph.last.gcPause-ph.first.gcPause) / 1e6 })
	out["runtime.heap_inuse_mib_end"] = over(phs, func(ph *phase) float64 { return float64(ph.last.heapInuse) / (1 << 20) })
}

// ringMetrics reads the replicates' copies of the manager's task ring (its
// last 512 tasks each): operations per task and the central-queue wait
// tail by the percentile rule.
func ringMetrics(phs []*phase, out map[string]stat) {
	waits := pooled(phs, func(ph *phase) []float64 { return ph.queueWaits })
	ops := pooled(phs, func(ph *phase) []float64 { return ph.taskOps })
	sum := 0.0
	for _, v := range ops {
		sum += v
	}
	out["manager.ops_per_task"] = single(sum / math.Max(1, float64(len(ops))))
	out["sched.queue_wait_samples"] = single(float64(len(waits)))
	out["sched.queue_wait_p99_us"] = single(percentile(waits, tailPercentile(len(waits))))
}

// spanMetrics turns the traced replicates' spans into the per-layer timing
// metrics and the ledger. Every timing is the typical request's (see
// typical). out already holds the calibrated board times and the mean
// queue wait, which manager.self_us subtracts. It returns the share of
// traced requests whose span tree was complete.
func spanMetrics(phs []*phase, out map[string]stat) (complete float64) {
	var bs []breakdown
	for _, ph := range phs {
		bs = append(bs, breakdowns(ph.spans)...)
	}
	mean, complete := typical(bs)
	self := func(name string) stat { return single(mean.self[spanColumn[name]] / 1e3) }
	dur := func(name string) stat { return single(mean.dur[spanColumn[name]] / 1e3) }
	out["http.self_us"] = self(spanRequest)
	out["gateway.self_us"] = self(spanGateway)
	out["apps.self_us"] = self(spanApps)
	out["remote.enqueue_write_us"] = dur(spanWrite)
	out["remote.enqueue_kernel_us"] = dur(spanKernel)
	out["remote.enqueue_read_us"] = dur(spanRead)
	out["remote.finish_us"] = dur(spanFinish)
	out["remote.finish_self_us"] = self(spanFinish)
	out["remote.wake_us"] = dur(spanWake)
	out["rpc.uplink_us"] = dur(spanUplink)
	out["rpc.downlink_us"] = dur(spanDownlink)
	out["rpc.client_write_us"] = dur(spanClientWrite)
	out["manager.service_us"] = dur(spanService)
	out["manager.self_us"] = single(out["manager.service_us"].Value - out["sched.queue_wait_mean_us"].Value -
		out["fpga.write_us"].Value - out["fpga.run_us"].Value - out["fpga.read_us"].Value)

	// The ledger: the rows' self times against the median round trip.
	totals := make([]float64, len(bs))
	for i, b := range bs {
		totals[i] = b.total
	}
	sum := 0.0
	for _, name := range ledgerSpans {
		sum += mean.self[spanColumn[name]]
	}
	out["ledger.residual_pct"] = single((median(totals) - sum) / median(totals) * 100)

	requests := math.Max(1, total(phs, func(ph *phase) float64 { return float64(ph.last.completed - ph.first.completed) }).Value)
	for i, name := range probeMetrics {
		out[name] = single(total(phs, func(ph *phase) float64 { return float64(ph.last.probes[i] - ph.first.probes[i]) }).Value / requests)
	}
	return complete
}

// calibrate measures the layer costs that have no place inside a request:
// a warm admission decision, the wire pool's 1 MiB tier, and the bare
// board's data movement at the workload's largest payload.
func calibrate(cfg systemConfig, out map[string]stat) error {
	adm := gateway.NewAdmission(gateway.Budget{Rate: 1e12, Burst: 1e12})
	adm.Admit("warm")
	const admits = 1_000_000
	start := time.Now()
	for i := 0; i < admits; i++ {
		adm.Admit("warm")
	}
	out["gateway.admit_ns"] = single(float64(time.Since(start).Nanoseconds()) / admits)

	const pairs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		wire.PutBuf(wire.GetBuf(1<<20 + 64))
	}
	runtime.ReadMemStats(&after)
	out["wire.getbuf_1m_kib_per_op"] = single(float64(after.TotalAlloc-before.TotalAlloc) / 1024 / pairs)

	size := 0
	for _, t := range cfg.tenants {
		size = max(size, t.payloadBytes)
	}
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	if _, err := board.Configure(accel.LoopbackBitstream().Binary()); err != nil {
		return err
	}
	in, err := board.Alloc(int64(size))
	if err != nil {
		return err
	}
	outBuf, err := board.Alloc(int64(size))
	if err != nil {
		return err
	}
	n, err := ocl.PackArg(int32(size))
	if err != nil {
		return err
	}
	args := []ocl.Arg{ocl.BufferArg(in), ocl.BufferArg(outBuf), n}
	data, dst := make([]byte, size), make([]byte, size)
	const rounds = 200
	var wr, run, rd []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := board.Write(in, 0, data); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := board.Run("copy", args, nil); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := board.Read(outBuf, 0, dst); err != nil {
			return err
		}
		t3 := time.Now()
		wr, run, rd = append(wr, float64(t1.Sub(t0))), append(run, float64(t2.Sub(t1))), append(rd, float64(t3.Sub(t2)))
	}
	out["fpga.write_us"] = single(median(wr) / 1e3)
	out["fpga.run_us"] = single(median(run) / 1e3)
	out["fpga.read_us"] = single(median(rd) / 1e3)
	return nil
}

// runOutcome is everything one invocation of the benchmark found.
type runOutcome struct {
	metrics   map[string]stat
	attempted int
	failed    int
	problems  []string // why the run is not correct; empty when it is
	spans     []span   // traced runs
}

func (o *runOutcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// shmDirIn is the run's own directory for shm segment files: inside the
// output directory (nothing is written outside the checkout), named after
// the process so that main can remove it if the run is cut short.
func shmDirIn(outDir string) string {
	return filepath.Join(outDir, fmt.Sprintf("shm-%d", os.Getpid()))
}

// setUp builds the system, deploys every function and gets one checked
// reply from each; the time this takes is setup_s. The returned cleanup
// tears the system down and reports what was left behind.
func (o *runOutcome) setUp(w workload, seed int64, traced bool, outDir string) (sys *system, seconds float64, cleanup func(), err error) {
	goroutines := runtime.NumGoroutine()
	cfg := w.cfg
	cfg.seed, cfg.traced = seed, traced
	cfg.shmDir = shmDirIn(outDir)
	if err := os.MkdirAll(cfg.shmDir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	start := time.Now()
	if sys, err = startSystem(cfg); err == nil {
		if err = sys.firstRequests(); err != nil {
			err = errors.Join(err, sys.close())
		}
	}
	if err != nil {
		os.RemoveAll(cfg.shmDir)
		return nil, 0, nil, fmt.Errorf("set-up: %w", err)
	}
	seconds = time.Since(start).Seconds()
	return sys, seconds, func() {
		if err := sys.close(); err != nil {
			o.problem("tear-down: %v", err)
		}
		os.RemoveAll(cfg.shmDir)
		if leaked := goroutinesLeaked(goroutines); leaked > 0 {
			o.problem("%d goroutine(s) leaked", leaked)
			o.metrics["runtime.goroutines_leaked"] = single(o.metrics["runtime.goroutines_leaked"].Value + float64(leaked))
		}
	}, nil
}

// replicate sets the system up, applies the load, reads it out and tears it
// down, checking on the way that nothing was lost or left behind.
func (o *runOutcome) replicate(w workload, seed int64, tm timing, index int, traced bool, outDir string) (*phase, error) {
	sys, setup, cleanup, err := o.setUp(w, seed, traced, outDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ph := sys.measure(tm, index)
	ph.setup = setup
	sys.readOut(ph)

	// Every request this system was sent (one per tenant at set-up, then
	// the load) must have become exactly one task on its manager: nothing
	// lost, nothing duplicated.
	okSent := float64(len(w.cfg.tenants))
	for _, l := range ph.loads {
		o.attempted += len(l.samples)
		o.failed += l.failed()
		okSent += float64(len(l.samples) - l.failed())
		if l.failed() > 0 {
			o.problem("%v", l)
		}
	}
	if final := sys.readCounters(ph.start, ph.loads); final.tasks != okSent {
		o.problem("manager executed %.0f tasks for %.0f successful requests", final.tasks, okSent)
	}
	return ph, nil
}

// Set-up of a few milliseconds is too noisy to gate on five samples: while
// set-ups are cheap, extra set-up-only rounds are timed, up to
// extraSetups of them or extraSetupBudget of time.
const (
	extraSetups      = 15
	extraSetupBudget = time.Second
)

// extraSetupRounds returns the set-up times of the extra rounds.
func (o *runOutcome) extraSetupRounds(w workload, seed int64, typical float64, outDir string) ([]float64, error) {
	rounds := min(extraSetups, int(extraSetupBudget.Seconds()/typical))
	var out []float64
	for i := 0; i < rounds; i++ {
		_, seconds, cleanup, err := o.setUp(w, seed, false, outDir)
		if err != nil {
			return nil, err
		}
		cleanup()
		out = append(out, seconds)
	}
	return out, nil
}

// runWorkload is one invocation of the benchmark. With trace off every
// replicate is untraced and nothing is wrapped. With trace on, two
// replicates are untraced (for the read-outs that need no spans and the
// p50 the overhead is measured against) and three are traced.
func runWorkload(w workload, seed int64, tm timing, traced bool, outDir string) (*runOutcome, error) {
	o := &runOutcome{metrics: map[string]stat{"runtime.goroutines_leaked": single(0)}}
	var plain, spansOn []*phase
	for i := 0; i < tm.replicates; i++ {
		withSpans := traced && i >= tm.replicates*2/5
		ph, err := o.replicate(w, seed, tm, i, withSpans, outDir)
		if err != nil {
			return nil, err
		}
		if withSpans {
			spansOn = append(spansOn, ph)
			o.spans = append(o.spans, ph.spans...)
		} else {
			plain = append(plain, ph)
		}
	}
	loadMetrics(plain, o.metrics)
	if !traced {
		ringMetrics(plain, o.metrics)
		setups := pooled(plain, func(ph *phase) []float64 { return []float64{ph.setup} })
		extra, err := o.extraSetupRounds(w, seed, median(setups), outDir)
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = overSlices(append(setups, extra...))
		o.check(endToEnd)
		return o, nil
	}
	if err := calibrate(w.cfg, o.metrics); err != nil {
		return nil, err
	}
	ringMetrics(spansOn, o.metrics) // the queue-wait tail is read at the end of the traced replicates
	if complete := spanMetrics(spansOn, o.metrics); complete < minComplete {
		o.problem("only %.1f%% of traced requests have a complete span tree", complete*100)
	}
	tracedP50, _ := latencyAt(spansOn, nil, 50)
	o.metrics["trace.overhead_pct"] = single((tracedP50.Value/o.metrics["p50_ms"].Value - 1) * 100)
	// Under contention the round trip is mostly queueing, whose skew pulls
	// the typical request away from the median: reported there, not gated.
	if r := o.metrics["ledger.residual_pct"].Value; w.cfg.timeScale == 0 && math.Abs(r) > ledgerTolerancePct {
		o.problem("ledger residual %.2f%% exceeds %.0f%%", r, ledgerTolerancePct)
	}
	o.check(perLayer)
	return o, nil
}

// check makes sure every metric of the list was measured.
func (o *runOutcome) check(defs []metricDef) {
	for _, d := range defs {
		st, ok := o.metrics[d.Name]
		if !ok {
			o.problem("metric %s missing", d.Name)
		} else if math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
			o.problem("metric %s is %v", d.Name, st.Value)
		}
	}
}
