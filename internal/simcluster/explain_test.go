package simcluster

// End-to-end postmortem test: a real Remote Library <-> Device Manager
// pair runs a transfer-heavy task under full trace sampling, then the
// Explainer — pointed at both processes' debug endpoints exactly as
// `blastctl explain` would be — must reconstruct the flight. The wait
// breakdown has to account for the wall-clock latency the client
// measured (within 5%), and the verdict must name the stage that was
// engineered to dominate. A second test overflows a tiny flight ring and
// checks the explicit partial-timeline warning.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/manager"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/stack"
)

// explainServers serves the node's routes, as cmd/devicemanager does, and
// the library's flight recorder. The remaining signals (logs, alerts,
// slo) are soft misses, as with a process that does not serve them.
func explainServers(t *testing.T, node *stack.Node, libFlight *flightrec.Recorder) []string {
	t.Helper()
	mgrSrv := httptest.NewServer(node.Handler())
	t.Cleanup(mgrSrv.Close)

	libMux := http.NewServeMux()
	libMux.Handle("/debug/flight", libFlight.Handler())
	libSrv := httptest.NewServer(libMux)
	t.Cleanup(libSrv.Close)
	return []string{mgrSrv.URL, libSrv.URL}
}

// waitComplete polls a recorder until the flight holds its terminal
// milestone — completion is recorded by the client's event machine just
// as Finish unblocks, so the test must not race it.
func waitComplete(t *testing.T, rec *flightrec.Recorder, trace obs.TraceID) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f, ok := rec.FlightFor(trace); ok {
			for _, ev := range f.Events {
				if ev.Kind == flightrec.KindComplete {
					return
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("flight %s never recorded completion", trace)
}

func TestExplainEndToEnd(t *testing.T) {
	rig := newSLORig(t) // 0.05 GB/s PCIe: a 4 MiB transfer sleeps ~80ms

	libFlight := flightrec.New(flightrec.Config{Process: "library"})
	defer libFlight.Close()
	client, err := remote.Dial(remote.Config{
		ClientName: "payments",
		Managers:   []string{rig.Addr},
		Transport:  remote.TransportGRPC,
		Tracer:     obs.New(1),
		Flight:     libFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cctx, q, k := openLoopback(t, client)

	// Asymmetric copy task: a 4 KiB input makes the device write cheap,
	// while reading the full 4 MiB output buffer keeps the modelled
	// device->host transfer — part of the manager's execute loop — the
	// dominant latency contributor by an order of magnitude.
	const inBytes, outBytes = 4096, 4 << 20
	in, err := cctx.CreateBuffer(ocl.MemReadOnly, inBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cctx.CreateBuffer(ocl.MemWriteOnly, outBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Release()
	defer out.Release()
	for i, arg := range []any{in, out, int32(inBytes)} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	if _, err := q.EnqueueWriteBuffer(in, false, 0, make([]byte, inBytes), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, outBytes)
	if _, err := q.EnqueueReadBuffer(out, false, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	measured := time.Since(start)

	trace := sampledFlight(t, libFlight)
	waitComplete(t, libFlight, trace)
	waitComplete(t, rig.Manager.Flight(), trace)

	ex := &flightrec.Explainer{Bases: explainServers(t, rig, libFlight)}
	pm, err := ex.Explain(trace)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}

	// Both processes answered and both contributed a flight skeleton.
	for _, src := range pm.Sources {
		if src.Err != "" {
			t.Fatalf("source %s unreachable: %s", src.Base, src.Err)
		}
		if src.Flights == 0 {
			t.Fatalf("source %s (%s) contributed no flight", src.Base, src.Process)
		}
	}
	if len(pm.Timeline) == 0 {
		t.Fatal("postmortem has an empty timeline")
	}

	// The client-observed total must match what the client measured on
	// its own clock: within 5%, per the acceptance bar.
	if pm.Total <= 0 {
		t.Fatalf("postmortem total %v, want > 0", pm.Total)
	}
	diff := measured - pm.Total
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(measured) {
		t.Fatalf("postmortem total %v vs measured %v: off by %v (> 5%%)", pm.Total, measured, diff)
	}

	// The stages plus the unattributed remainder are the breakdown of
	// the total — so they too must sum to the measured latency within 5%.
	var attributed time.Duration
	for _, s := range pm.Stages {
		attributed += s.Dur
	}
	sum := attributed + pm.Unattributed
	if d := sum - measured; d > time.Duration(0.05*float64(measured)) || -d > time.Duration(0.05*float64(measured)) {
		t.Fatalf("stage sum %v (+%v unattributed) vs measured %v: outside 5%%", attributed, pm.Unattributed, measured)
	}

	// Verdict: the 4 MiB device->host read dominates, and it lives in
	// the execute stage.
	if !strings.HasPrefix(pm.Verdict, "execute dominated") {
		t.Fatalf("verdict %q, want execute dominated", pm.Verdict)
	}
	var execDur, upload time.Duration
	for _, s := range pm.Stages {
		switch s.Name {
		case "execute":
			execDur = s.Dur
		case "upload":
			upload = s.Dur
		}
	}
	if float64(execDur) < 0.5*float64(pm.Total) {
		t.Fatalf("execute stage %v is under half the %v total", execDur, pm.Total)
	}
	// The worker holds the board once per task, so the device write's
	// wall time holds no sleep; its upload share is its scaled modelled
	// staging and DMA time, and the stage must still cover the DMA.
	dma := time.Duration(float64(rig.Board.Cost().PCIeTransfer(inBytes)) * rig.Board.Config().TimeScale)
	if upload < dma {
		t.Fatalf("upload stage %v is under the write's modelled DMA %v", upload, dma)
	}

	// Both processes hold their whole flight, so the rendered report must
	// carry no partial warning — and must state the verdict.
	var buf bytes.Buffer
	pm.Render(&buf)
	if strings.Contains(buf.String(), "WARNING") {
		t.Fatalf("unexpected partial warning:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "verdict: execute dominated") {
		t.Fatalf("rendered report lacks the verdict:\n%s", buf.String())
	}
}

func TestExplainPartialFlightWarning(t *testing.T) {
	// A manager with a 4-flight ring: later tasks evict the first task's
	// flight there, while the library still holds its own. The postmortem
	// must say the manager answered without a flight for the trace
	// instead of silently rendering a timeline with the board side missing.
	rig := newChaosRig(t, manager.Config{Node: "evict", DeviceID: "evict-A", FlightRing: 4})
	defer rig.Close()

	libFlight := flightrec.New(flightrec.Config{Process: "library"})
	defer libFlight.Close()
	client, err := remote.Dial(remote.Config{
		ClientName: "payments",
		Managers:   []string{rig.Addr},
		Transport:  remote.TransportGRPC,
		Tracer:     obs.New(1),
		Flight:     libFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cctx, q, k := openLoopback(t, client)

	runCopyTask(t, cctx, q, k, 4096)
	first := sampledFlight(t, libFlight)
	waitComplete(t, libFlight, first)
	waitComplete(t, rig.Manager.Flight(), first)

	// A dozen later tasks overflow the manager's 4-flight ring.
	for i := 0; i < 12; i++ {
		runCopyTask(t, cctx, q, k, 4096)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := rig.Manager.Flight().FlightFor(first); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the manager's ring never evicted the first task's flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ex := &flightrec.Explainer{Bases: explainServers(t, rig, libFlight)}
	pm, err := ex.Explain(first)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	partial := 0
	for _, src := range pm.Sources {
		if src.Partial != "" {
			partial++
			if src.Process != "manager/evict-A" || src.Flights != 0 {
				t.Errorf("source %s (%d flights) marked partial: %s", src.Process, src.Flights, src.Partial)
			}
		}
	}
	if partial != 1 {
		t.Fatalf("%d sources marked partial, want the manager's: %+v", partial, pm.Sources)
	}
	var buf bytes.Buffer
	pm.Render(&buf)
	if !strings.Contains(buf.String(), "WARNING: manager/evict-A holds no flight for the trace and has evicted") {
		t.Fatalf("rendered report lacks the partial warning:\n%s", buf.String())
	}
}
