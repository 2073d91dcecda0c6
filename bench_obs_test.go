package blastfunction

// Observability-tax trajectory: what the SLO/exemplar/profiling plane
// costs on the metrics hot path. `make bench-obs` runs this and writes
// BENCH_obs.json at the repo root so the numbers accumulate across
// revisions. The budget that matters: at default sampling almost every
// observation arrives with an empty trace ID, and that path must cost
// within 2% of a plain Observe.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/remote"
	"blastfunction/internal/stack"
)

// obsReport is the BENCH_obs.json schema.
type obsReport struct {
	GeneratedBy string `json:"generated_by"`

	// Per-observation cost of the three histogram paths, ns (best of 5
	// runs over 1000-observation batches).
	ObservePlainNs            float64 `json:"observe_plain_ns"`
	ObserveUnsampledNs        float64 `json:"observe_unsampled_exemplar_ns"`
	ObserveSampledNs          float64 `json:"observe_sampled_exemplar_ns"`
	UnsampledOverheadPct      float64 `json:"unsampled_overhead_pct"`
	RuntimeSampleNs           float64 `json:"runtime_collector_sample_ns"`
	RenderPlainNs             float64 `json:"render_50_histograms_plain_ns"`
	Render500PlainNs          float64 `json:"render_500_histograms_plain_ns"`
	RenderWithExemplarsNs     float64 `json:"render_50_histograms_exemplars_ns"`
	RenderExemplarOverheadPct float64 `json:"render_exemplar_overhead_pct"`
	// One scrape's ingest of the 500-series registry: render, parse and
	// append to a TSDB that already holds every series.
	Ingest500Ns     float64 `json:"ingest_500_histograms_ns"`
	Ingest500Allocs float64 `json:"ingest_500_histograms_allocs"`

	// Flight-recorder tax. FlightLifecycleNs is the total recorder work
	// one task costs across both processes (the client library's key
	// reservation + batched completion, the manager's key reservation +
	// cache probe + batched completion), measured in isolation where a
	// nanosecond-scale number is reproducible. RecorderOverheadPct — the
	// ≤2% gate — is that work relative to the measured recorder-free 4K
	// round trip. The in-situ on/off pair is recorded alongside as a
	// sanity signal (RoundTripRecorderDeltaPct) but not gated: a 2%
	// budget is ~1µs here, below what back-to-back ~40µs round-trip
	// runs can resolve against machine drift.
	FlightLifecycleNs         float64 `json:"flight_lifecycle_ns"`
	RoundTripRecorderOffNs    float64 `json:"round_trip_4k_recorder_off_ns"`
	RoundTripRecorderOnNs     float64 `json:"round_trip_4k_recorder_on_ns"`
	RoundTripRecorderDeltaPct float64 `json:"round_trip_recorder_delta_pct"`
	RecorderOverheadPct       float64 `json:"recorder_overhead_pct"`
}

// benchWriteReadFlight is the live write->kernel->read round trip with
// the flight recorder toggled on both ends of the path: the Remote
// Library's (the recorder its Config hands it) and the Device Manager's.
// Mirrors bench_test.go's benchWriteRead otherwise.
func benchWriteReadFlight(b *testing.B, size int, off bool) {
	b.Helper()
	node, err := stack.NewNode(stack.NodeConfig{
		Manager: manager.Config{Node: "bench", DeviceID: "fpga-bench", NoFlightRecorder: off},
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		b.Fatal(err)
	}
	var flight *flightrec.Recorder
	if !off {
		flight = flightrec.New(flightrec.Config{Process: "library/bench"})
	}
	client, err := remote.Dial(remote.Config{
		ClientName: "bench",
		Managers:   []string{node.Addr},
		Transport:  remote.TransportGRPC,
		Flight:     flight,
	})
	if err != nil {
		node.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Close()
		flight.Close()
		node.Close()
	})
	_, q, k, in, out := setupCopy(b, client, size)
	for i, arg := range []any{in, out, int32(size)} {
		if err := k.SetArg(i, arg); err != nil {
			b.Fatal(err)
		}
	}
	payload := bytes.Repeat([]byte{0xAB}, size)
	dst := make([]byte, size)
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

// minBench runs a benchmark five times and keeps the fastest ns/op —
// minimums are far more stable than means for sub-microsecond paths.
func minBench(f func(b *testing.B)) float64 {
	best := math.MaxFloat64
	for i := 0; i < 5; i++ {
		if v := float64(testing.Benchmark(f).NsPerOp()); v < best {
			best = v
		}
	}
	return best
}

// minBenchPair interleaves two benchmarks (a,b,a,b,...) and keeps each
// one's fastest ns/op. For comparisons whose difference is small against
// machine drift — the flight-recorder round-trip gate — interleaving
// exposes both variants to the same drift phases; running all of one
// then all of the other would attribute the drift to the code change.
func minBenchPair(fa, fb func(b *testing.B)) (float64, float64) {
	bestA, bestB := math.MaxFloat64, math.MaxFloat64
	for i := 0; i < 5; i++ {
		if v := float64(testing.Benchmark(fa).NsPerOp()); v < bestA {
			bestA = v
		}
		if v := float64(testing.Benchmark(fb).NsPerOp()); v < bestB {
			bestB = v
		}
	}
	return bestA, bestB
}

// pairedMinNs compares two loops whose difference is below what even
// benchmark-granularity interleaving can resolve (the 2%-of-30ns
// observe gate is ~0.6ns): it alternates them in back-to-back slices of
// sliceOps iterations — milliseconds, far shorter than machine drift
// phases, so each pair of slices sees the same machine — and keeps each
// side's fastest per-op time over all rounds. The first rounds warm
// caches and are discarded.
func pairedMinNs(sliceOps, rounds int, fa, fb func(n int)) (float64, float64) {
	const warmup = 3
	bestA, bestB := math.MaxFloat64, math.MaxFloat64
	for r := 0; r < warmup+rounds; r++ {
		t0 := time.Now()
		fa(sliceOps)
		da := time.Since(t0)
		t1 := time.Now()
		fb(sliceOps)
		db := time.Since(t1)
		if r < warmup {
			continue
		}
		if v := float64(da.Nanoseconds()) / float64(sliceOps); v < bestA {
			bestA = v
		}
		if v := float64(db.Nanoseconds()) / float64(sliceOps); v < bestB {
			bestB = v
		}
	}
	return bestA, bestB
}

const obsBatch = 1000

// TestBenchObsArtifact measures the observability plane's tax and records
// BENCH_obs.json. Gated behind BF_BENCH_OBS so `go test ./...` stays fast.
func TestBenchObsArtifact(t *testing.T) {
	if os.Getenv("BF_BENCH_OBS") == "" {
		t.Skip("set BF_BENCH_OBS=1 (or run `make bench-obs`) to record the artifact")
	}

	newHist := func() metrics.Histogram {
		return metrics.NewRegistry().Histogram("bf_bench_latency_seconds", "bench",
			metrics.Labels{"tenant": "bench"}, nil)
	}
	// Values sweep the bucket range so every branch of the bucket walk runs.
	vals := make([]float64, obsBatch)
	for i := range vals {
		vals[i] = 0.0001 * float64(1+i%50)
	}

	report := obsReport{GeneratedBy: "make bench-obs"}
	// Plain vs unsampled-exemplar run tightly paired: the gated
	// difference is well under a nanosecond per observation, which only
	// millisecond-scale alternation can attribute correctly when the
	// machine drifts.
	hPlain, hUnsampled := newHist(), newHist()
	plainNs, unsampledNs := pairedMinNs(300, 200,
		func(n int) {
			for i := 0; i < n; i++ {
				for _, v := range vals {
					hPlain.Observe(v)
				}
			}
		},
		func(n int) {
			for i := 0; i < n; i++ {
				for _, v := range vals {
					hUnsampled.ObserveExemplar(v, "") // the default-sampling path: no trace attached
				}
			}
		})
	report.ObservePlainNs = plainNs / obsBatch
	report.ObserveUnsampledNs = unsampledNs / obsBatch
	report.ObserveSampledNs = minBench(func(b *testing.B) {
		h := newHist()
		for i := 0; i < b.N; i++ {
			for _, v := range vals {
				h.ObserveExemplar(v, "00000000deadbeef")
			}
		}
	}) / obsBatch
	report.UnsampledOverheadPct = 100 * (report.ObserveUnsampledNs - report.ObservePlainNs) / report.ObservePlainNs

	report.RuntimeSampleNs = minBench(func(b *testing.B) {
		col := obs.NewRuntimeCollector(metrics.NewRegistry(), metrics.Labels{"component": "bench"})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col.SampleOnce()
		}
	})

	// Scrape-path cost: rendering 50 histogram series, with and without
	// an exemplar pinned in every bucket, and 500 plain ones — the 500
	// tenants of the scale exemplar on one registry.
	histRegistry := func(series int, exemplars bool) *metrics.Registry {
		reg := metrics.NewRegistry()
		for i := 0; i < series; i++ {
			h := reg.Histogram("bf_bench_latency_seconds", "bench",
				metrics.Labels{"tenant": fmt.Sprintf("t%02d", i)}, nil)
			for _, v := range vals[:100] {
				if exemplars {
					h.ObserveExemplar(v, "00000000deadbeef")
				} else {
					h.Observe(v)
				}
			}
		}
		return reg
	}
	renderCost := func(series int, exemplars bool) float64 {
		reg := histRegistry(series, exemplars)
		return minBench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(reg.Render()) == 0 {
					b.Fatal("empty render")
				}
			}
		})
	}
	report.RenderPlainNs = renderCost(50, false)
	report.RenderWithExemplarsNs = renderCost(50, true)
	report.Render500PlainNs = renderCost(500, false)
	report.RenderExemplarOverheadPct = 100 * (report.RenderWithExemplarsNs - report.RenderPlainNs) / report.RenderPlainNs

	// The same 500 series through the scraper's text path into a TSDB
	// that holds them from the first ingest on. A 2 s tick against a
	// minute of retention keeps the store at its steady-state size.
	reg500, db := histRegistry(500, false), metrics.NewTSDB(time.Minute)
	scrapeAt := time.Unix(1700000000, 0)
	ingest := func() {
		samples, err := metrics.Parse(reg500.Render())
		if err != nil {
			t.Fatal(err)
		}
		scrapeAt = scrapeAt.Add(2 * time.Second)
		db.Append(scrapeAt, samples)
	}
	for i := 0; i < 40; i++ {
		ingest()
	}
	report.Ingest500Ns = minBench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ingest()
		}
	})
	report.Ingest500Allocs = testing.AllocsPerRun(20, ingest)

	// The flight recorder's per-task cost: everything both processes'
	// recorders do for one write->kernel->read round trip, in the exact
	// shape the hot paths use — the client library reserves a key and
	// applies its batched wire-send milestone at the terminal
	// notification; the manager reserves a key, records the session's
	// cache probe, and applies the worker's batched milestones at
	// completion. Runs at the default ring size so steady-state FIFO
	// eviction is included.
	report.FlightLifecycleNs = minBench(func(b *testing.B) {
		cli := flightrec.New(flightrec.Config{Process: "library/bench"})
		mgr := flightrec.New(flightrec.Config{Process: "manager/bench"})
		defer cli.Close()
		defer mgr.Close()
		cliBatch := []flightrec.Event{
			{Kind: flightrec.KindUpload, Dur: time.Microsecond, Detail: "wire-send"},
		}
		mgrBatch := []flightrec.Event{
			{Kind: flightrec.KindEnqueued, Depth: 1, Pos: 1, Detail: "3 ops"},
			{Kind: flightrec.KindScheduled, Dur: time.Millisecond, Detail: "fifo"},
			{Kind: flightrec.KindUpload, Dur: time.Millisecond, Detail: "device-write"},
			{Kind: flightrec.KindExecute, Dur: time.Millisecond, Detail: "3 ops"},
			{Kind: flightrec.KindNotify, Dur: time.Microsecond},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ck := cli.Alloc(0)
			mk := mgr.Alloc(0)
			mgr.Record(mk, flightrec.Event{Kind: flightrec.KindBufferHit})
			mgr.CompleteWith(mk, "bench", mgrBatch, time.Time{}, 3*time.Millisecond, false, "")
			cli.CompleteWith(ck, "bench", cliBatch, time.Time{}, 4*time.Millisecond, false, "")
		}
	})

	// The same tax in situ: the live 4K gRPC round trip with the flight
	// recorders disabled on both the library and the manager, then with
	// the always-on default — interleaved so machine drift cancels.
	report.RoundTripRecorderOffNs, report.RoundTripRecorderOnNs = minBenchPair(
		func(b *testing.B) { benchWriteReadFlight(b, 4<<10, true) },
		func(b *testing.B) { benchWriteReadFlight(b, 4<<10, false) },
	)
	report.RoundTripRecorderDeltaPct = 100 * (report.RoundTripRecorderOnNs - report.RoundTripRecorderOffNs) / report.RoundTripRecorderOffNs
	// The gated number: the recorder's measured per-task work against the
	// measured recorder-free round trip.
	report.RecorderOverheadPct = 100 * report.FlightLifecycleNs / report.RoundTripRecorderOffNs

	t.Logf("observe: plain=%.1fns unsampled-exemplar=%.1fns (%.2f%%) sampled=%.1fns",
		report.ObservePlainNs, report.ObserveUnsampledNs, report.UnsampledOverheadPct, report.ObserveSampledNs)
	t.Logf("runtime collector sample: %.0fns", report.RuntimeSampleNs)
	t.Logf("render 50 histograms: plain=%.0fns exemplars=%.0fns (%.1f%%); 500 plain=%.0fns",
		report.RenderPlainNs, report.RenderWithExemplarsNs, report.RenderExemplarOverheadPct, report.Render500PlainNs)
	t.Logf("ingest 500 histograms: %.0fns, %.0f allocations", report.Ingest500Ns, report.Ingest500Allocs)
	t.Logf("flight recorder: lifecycle=%.0fns (%.2f%% of round trip) in-situ off=%.0fns on=%.0fns (delta %.2f%%)",
		report.FlightLifecycleNs, report.RecorderOverheadPct,
		report.RoundTripRecorderOffNs, report.RoundTripRecorderOnNs, report.RoundTripRecorderDeltaPct)

	// Quality bar: the unsampled observation path — what every request
	// pays at default sampling — must stay within 2% of a plain Observe.
	if report.UnsampledOverheadPct > 2 {
		t.Fatalf("unsampled exemplar path costs %.2f%% over plain Observe, budget 2%%",
			report.UnsampledOverheadPct)
	}
	// And the always-on flight recorder's per-task work must stay within
	// 2% of the recorder-free round trip — it has no sampling knob to
	// hide behind.
	if report.RecorderOverheadPct > 2 {
		t.Fatalf("flight recorder work is %.2f%% of the 4K round trip, budget 2%%",
			report.RecorderOverheadPct)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_obs.json")
}
