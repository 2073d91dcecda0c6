package blastfunction

// Benchmark harness: one benchmark per paper figure/table plus the
// micro-benchmarks and ablation studies DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Figure/table benchmarks report the paper-comparable quantities as
// custom metrics (ms of RTT, rq/s processed, utilization %) in addition
// to the usual ns/op of generating them.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/apps"
	"blastfunction/internal/bench"
	"blastfunction/internal/fpga"
	"blastfunction/internal/model"
	"blastfunction/internal/native"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
	"blastfunction/internal/sched"
	"blastfunction/internal/shm"
	"blastfunction/internal/sim"
	"blastfunction/internal/simcluster"
	"blastfunction/internal/wire"
)

// --- Paper figures (overhead study) ---

func benchFigure(b *testing.B, build func() *bench.Figure) {
	b.Helper()
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		fig = build()
	}
	last := fig.Points[len(fig.Points)-1]
	b.ReportMetric(float64(last.Native.Microseconds())/1000, "native_ms")
	b.ReportMetric(float64(last.GRPC.Microseconds())/1000, "grpc_ms")
	b.ReportMetric(float64(last.Shm.Microseconds())/1000, "shm_ms")
}

func BenchmarkFig4aRW(b *testing.B)    { benchFigure(b, bench.Fig4a) }
func BenchmarkFig4bSobel(b *testing.B) { benchFigure(b, bench.Fig4b) }
func BenchmarkFig4cMM(b *testing.B)    { benchFigure(b, bench.Fig4c) }

// --- Paper tables (utilization studies on the DES) ---

func benchStudy(b *testing.B, uc simcluster.UseCase) {
	b.Helper()
	var study *bench.UtilizationStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = bench.RunStudy(uc)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the high-load BlastFunction vs Native aggregates.
	for _, run := range study.Runs {
		if run.Level != simcluster.HighLoad {
			continue
		}
		prefix := "bf"
		if run.System == "Native" {
			prefix = "native"
		}
		b.ReportMetric(run.Result.Processed, prefix+"_rqps")
		b.ReportMetric(run.Result.TotalUtilization*100, prefix+"_util_pct")
	}
}

func BenchmarkTable2Sobel(b *testing.B)   { benchStudy(b, simcluster.UseSobel) }
func BenchmarkTable3MM(b *testing.B)      { benchStudy(b, simcluster.UseMM) }
func BenchmarkTable4AlexNet(b *testing.B) { benchStudy(b, simcluster.UseAlexNet) }

// --- Live-system micro-benchmarks ---

// liveRig starts a single-board testbed (no modelled sleeping) and a
// client with the requested transport.
func liveRig(b testing.TB, mode remote.TransportMode) (*Testbed, *remote.Client) {
	return liveRigWith(b, mode, nil)
}

// liveRigWith is liveRig with a distributed-tracing tracer attached to
// the client (nil disables tracing, the default path).
func liveRigWith(b testing.TB, mode remote.TransportMode, tracer *obs.Tracer) (*Testbed, *remote.Client) {
	b.Helper()
	tb, err := NewTestbed(NodeConfig{Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	client, err := remote.Dial(remote.Config{
		ClientName: "bench",
		Managers:   []string{tb.Nodes[0].Addr},
		Transport:  mode,
		ShmDir:     b.TempDir(),
		Tracer:     tracer,
	})
	if err != nil {
		tb.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Close()
		tb.Close()
	})
	return tb, client
}

func setupCopy(b testing.TB, client ocl.Client, size int) (ocl.Context, ocl.CommandQueue, ocl.Kernel, ocl.Buffer, ocl.Buffer) {
	b.Helper()
	platforms, err := client.Platforms()
	if err != nil {
		b.Fatal(err)
	}
	devs, err := platforms[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := client.CreateContext(devs[:1])
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithBinary(devs[0], accel.LoopbackBitstream().Binary())
	if err != nil {
		b.Fatal(err)
	}
	if err := prog.Build(""); err != nil {
		b.Fatal(err)
	}
	k, err := prog.CreateKernel("copy")
	if err != nil {
		b.Fatal(err)
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		b.Fatal(err)
	}
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, size, nil)
	if err != nil {
		b.Fatal(err)
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, size, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ctx, q, k, in, out
}

// benchWriteRead measures the live write->kernel->read round trip through
// the full RPC + manager + board stack.
func benchWriteRead(b *testing.B, mode remote.TransportMode, size int) {
	benchWriteReadTraced(b, mode, size, nil)
}

func benchWriteReadTraced(b *testing.B, mode remote.TransportMode, size int, tracer *obs.Tracer) {
	_, client := liveRigWith(b, mode, tracer)
	_, q, k, in, out := setupCopy(b, client, size)
	if err := k.SetArg(0, in); err != nil {
		b.Fatal(err)
	}
	if err := k.SetArg(1, out); err != nil {
		b.Fatal(err)
	}
	if err := k.SetArg(2, int32(size)); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, size)
	dst := make([]byte, size)
	b.SetBytes(int64(2 * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := q.EnqueueTask(k, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := q.EnqueueReadBuffer(out, false, 0, dst, nil); err != nil {
			b.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveRoundTripGRPC4K(b *testing.B) { benchWriteRead(b, remote.TransportGRPC, 4<<10) }
func BenchmarkLiveRoundTripGRPC1M(b *testing.B) { benchWriteRead(b, remote.TransportGRPC, 1<<20) }
func BenchmarkLiveRoundTripShm4K(b *testing.B)  { benchWriteRead(b, remote.TransportShm, 4<<10) }
func BenchmarkLiveRoundTripShm1M(b *testing.B)  { benchWriteRead(b, remote.TransportShm, 1<<20) }

// BenchmarkTraceOverhead measures the tracing tax on the hot RPC path:
// the 4K gRPC round trip with tracing disabled entirely (the nil-tracer
// baseline, comparable to BenchmarkLiveRoundTripGRPC4K), with a tracer
// attached but sampling at 1% (production setting), and sampling every
// task (worst case). The acceptance budget is <2% for the off case.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchWriteReadTraced(b, remote.TransportGRPC, 4<<10, nil)
	})
	b.Run("sampled-0pct", func(b *testing.B) {
		benchWriteReadTraced(b, remote.TransportGRPC, 4<<10,
			obs.New(0))
	})
	b.Run("sampled-1pct", func(b *testing.B) {
		benchWriteReadTraced(b, remote.TransportGRPC, 4<<10,
			obs.New(0.01))
	})
	b.Run("sampled-100pct", func(b *testing.B) {
		benchWriteReadTraced(b, remote.TransportGRPC, 4<<10,
			obs.New(1))
	})
}

// BenchmarkNativeRoundTrip1M is the no-manager baseline for the live
// round-trip benches.
func BenchmarkNativeRoundTrip1M(b *testing.B) {
	const size = 1 << 20
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	client := native.New(board)
	_, q, k, in, out := setupCopy(b, client, size)
	k.SetArg(0, in)
	k.SetArg(1, out)
	k.SetArg(2, int32(size))
	payload := bytes.Repeat([]byte{0xAB}, size)
	dst := make([]byte, size)
	b.SetBytes(2 * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.EnqueueWriteBuffer(in, false, 0, payload, nil)
		q.EnqueueTask(k, nil)
		q.EnqueueReadBuffer(out, false, 0, dst, nil)
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkWireEncodeDecodeNotification(b *testing.B) {
	n := &wire.OpNotification{Tag: 42, State: wire.OpComplete, DeviceNanos: 12345,
		Data: bytes.Repeat([]byte{1}, 256)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := wire.NewEncoder(512)
		n.Encode(e)
		var out wire.OpNotification
		out.Decode(wire.NewDecoder(e.Bytes()))
	}
}

func BenchmarkShmArenaAllocFree(b *testing.B) {
	arena := shm.NewArena(64 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, err := arena.Alloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		arena.Free(off, 4096)
	}
}

func BenchmarkEventStateMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := ocl.NewEvent(ocl.CommandWriteBuffer)
		ev.SetStatus(ocl.Submitted)
		ev.SetStatus(ocl.Running)
		ev.Complete()
		if err := ev.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSobelKernelCompute(b *testing.B) {
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	if _, err := board.Configure(accel.SobelBitstream().Binary()); err != nil {
		b.Fatal(err)
	}
	const w, h = 256, 256
	in, _ := board.Alloc(accel.SobelImageBytes(w, h))
	out, _ := board.Alloc(accel.SobelImageBytes(w, h))
	board.Write(in, 0, apps.SyntheticImage(w, h))
	wArg, _ := ocl.PackArg(int32(w))
	hArg, _ := ocl.PackArg(int32(h))
	args := []ocl.Arg{ocl.BufferArg(in), ocl.BufferArg(out), wArg, hArg}
	b.SetBytes(int64(w * h * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := board.Run("sobel", args, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMKernelCompute(b *testing.B) {
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	if _, err := board.Configure(accel.MMBitstream().Binary()); err != nil {
		b.Fatal(err)
	}
	const n = 128
	bufA, _ := board.Alloc(accel.MMMatrixBytes(n))
	bufB, _ := board.Alloc(accel.MMMatrixBytes(n))
	bufC, _ := board.Alloc(accel.MMMatrixBytes(n))
	mat := make([]byte, accel.MMMatrixBytes(n))
	accel.PutFloat32Slice(mat, apps.RandomMatrix(n, 1))
	board.Write(bufA, 0, mat)
	board.Write(bufB, 0, mat)
	nArg, _ := ocl.PackArg(int32(n))
	args := []ocl.Arg{ocl.BufferArg(bufA), ocl.BufferArg(bufB), ocl.BufferArg(bufC), nArg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := board.Run("mm", args, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocationAlgorithm(b *testing.B) {
	src := registry.StaticMetrics{}
	reg, err := registry.New(registry.DefaultPolicy(src))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		reg.RegisterDevice(registry.Device{
			ID: fmt.Sprintf("fpga-%02d", i), Node: fmt.Sprintf("n%02d", i),
			Vendor: "Intel(R) Corporation", Platform: "SDK",
		})
		src[fmt.Sprintf("fpga-%02d", i)] = registry.DeviceMetrics{Utilization: float64(i) / 20}
	}
	reg.RegisterFunction(registry.Function{Name: "f", Query: registry.DeviceQuery{Accelerator: "sobel"}, Bitstream: "spector-sobel"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := reg.Allocate(registry.AllocRequest{
			InstanceUID:  fmt.Sprintf("u%d", i),
			InstanceName: fmt.Sprintf("i%d", i),
			Function:     "f",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		s, err := e.NewServer(sched.FIFO)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1000; j++ {
			s.Enqueue("t", 1, time.Millisecond, nil)
		}
		e.Run(time.Hour)
	}
	b.ReportMetric(1000, "jobs/run")
}

// --- Ablation studies (DESIGN.md section 6) ---

// BenchmarkAblationTaskBatching compares per-operation flushing against
// multi-operation tasks on the live stack: batching amortizes the control
// round trip, the reason the Device Manager accumulates tasks.
func BenchmarkAblationTaskBatching(b *testing.B) {
	const ops = 8
	const size = 4 << 10
	run := func(b *testing.B, flushEach bool) {
		_, client := liveRig(b, remote.TransportShm)
		ctx, q, _, in, _ := setupCopy(b, client, size)
		_ = ctx
		payload := bytes.Repeat([]byte{1}, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < ops; j++ {
				if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
					b.Fatal(err)
				}
				if flushEach {
					if err := q.Finish(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := q.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("flush-per-op", func(b *testing.B) { run(b, true) })
	b.Run("batched-task", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationSyncVsAsync compares the blocking flow (every call
// waits) against the asynchronous event flow the paper's library favors.
func BenchmarkAblationSyncVsAsync(b *testing.B) {
	const size = 16 << 10
	run := func(b *testing.B, blocking bool) {
		_, client := liveRig(b, remote.TransportShm)
		_, q, k, in, out := setupCopy(b, client, size)
		k.SetArg(0, in)
		k.SetArg(1, out)
		k.SetArg(2, int32(size))
		payload := bytes.Repeat([]byte{1}, size)
		dst := make([]byte, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.EnqueueWriteBuffer(in, blocking, 0, payload, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := q.EnqueueTask(k, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := q.EnqueueReadBuffer(out, blocking, 0, dst, nil); err != nil {
				b.Fatal(err)
			}
			if err := q.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("synchronous", func(b *testing.B) { run(b, true) })
	b.Run("asynchronous", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationAllocation compares allocation policies on the Sobel
// high-load scenario: utilization-aware ordering (Algorithm 1's default),
// connected-count ordering, and no ordering at all (first compatible
// device).
func BenchmarkAblationAllocation(b *testing.B) {
	policies := []struct {
		name  string
		order []registry.Criterion
	}{
		{"utilization-aware", nil}, // default policy
		{"least-connected", []registry.Criterion{{Metric: registry.MetricConnected}}},
		{"first-fit", []registry.Criterion{{Metric: registry.MetricQueueDepth, Quantum: 1e9}}},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			var res *simcluster.Result
			for i := 0; i < b.N; i++ {
				exp, err := simcluster.BlastFunctionExperiment(simcluster.UseSobel, simcluster.HighLoad)
				if err != nil {
					b.Fatal(err)
				}
				exp.Order = p.order
				res, err = simcluster.Run(exp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Processed, "rqps")
			b.ReportMetric(res.TotalUtilization*100, "util_pct")
			b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "latency_ms")
		})
	}
}

// BenchmarkAblationScheduling runs high Sobel load under every
// central-queue discipline the manager ships.
func BenchmarkAblationScheduling(b *testing.B) {
	for _, d := range sched.Disciplines {
		b.Run(string(d), func(b *testing.B) {
			var res *simcluster.Result
			for i := 0; i < b.N; i++ {
				exp, err := simcluster.BlastFunctionExperiment(simcluster.UseSobel, simcluster.HighLoad)
				if err != nil {
					b.Fatal(err)
				}
				exp.Scheduling = d
				res, err = simcluster.Run(exp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Processed, "rqps")
			b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "latency_ms")
		})
	}
}

// BenchmarkAblationTransport sweeps the three data paths over the DES MM
// scenario — the paper's own shm-vs-gRPC ablation at cluster scale.
func BenchmarkAblationTransport(b *testing.B) {
	for _, tr := range []model.Transport{model.TransportNative, model.TransportGRPC, model.TransportShm} {
		b.Run(tr.String(), func(b *testing.B) {
			var res *simcluster.Result
			for i := 0; i < b.N; i++ {
				exp, err := simcluster.BlastFunctionExperiment(simcluster.UseMM, simcluster.MediumLoad)
				if err != nil {
					b.Fatal(err)
				}
				exp.Transport = tr
				res, err = simcluster.Run(exp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Processed, "rqps")
			b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "latency_ms")
		})
	}
}

// BenchmarkAblationSpaceSharing compares time-sharing (one resident
// bitstream per board, Algorithm 1 segregates accelerators) against the
// paper's future-work space-sharing mode (two resident designs per board
// at an area penalty) on a mixed Sobel+MM scenario.
func BenchmarkAblationSpaceSharing(b *testing.B) {
	for _, mode := range []struct {
		name  string
		space bool
	}{
		{"time-sharing", false},
		{"space-sharing", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var res *simcluster.Result
			for i := 0; i < b.N; i++ {
				exp, err := simcluster.MixedExperiment(simcluster.MediumLoad, mode.space)
				if err != nil {
					b.Fatal(err)
				}
				res, err = simcluster.Run(exp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Processed, "rqps")
			b.ReportMetric(res.TotalUtilization*100, "util_pct")
			b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "latency_ms")
		})
	}
}

// BenchmarkAblationPipelining asks whether a separate DMA engine
// (overlapping one task's transfers with another's kernel) would pay off —
// the Device Manager the paper built executes one operation at a time.
func BenchmarkAblationPipelining(b *testing.B) {
	for _, mode := range []struct {
		name    string
		overlap bool
	}{
		{"serialized", false},
		{"dma-overlap", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var res *simcluster.Result
			for i := 0; i < b.N; i++ {
				exp, err := simcluster.BlastFunctionExperiment(simcluster.UseSobel, simcluster.HighLoad)
				if err != nil {
					b.Fatal(err)
				}
				exp.OverlapDMA = mode.overlap
				res, err = simcluster.Run(exp)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Processed, "rqps")
			b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "latency_ms")
		})
	}
}
