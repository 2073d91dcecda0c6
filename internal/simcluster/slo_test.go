package simcluster

// End-to-end SLO test: a real Remote Library <-> Device Manager pair runs
// healthy traffic, then a tenant surge blows the latency objective. The
// scraper feeds the manager's /metrics (exemplars and all) into a TSDB on
// a simulated clock, the SLO engine's fast-burn rule must fire within its
// window, /debug/slo must show the depleted budget with a non-empty
// exemplar trace that resolves to flights on BOTH sides of the RPC, and the
// page must leave a pprof snapshot on disk via the alert-capture hook.

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/slo"
	"blastfunction/internal/stack"
)

// newSLORig starts a node whose board sleeps real wall time for
// transfers, so payload size controls the measured task latency: small
// payloads stay far under the objective's target, 1 MiB payloads
// reliably blow it.
func newSLORig(t *testing.T) *stack.Node {
	t.Helper()
	cost := model.WorkerNode()
	cost.PCIeGBps = 0.05                    // 1 MiB transfer ~= 20 ms modelled
	cost.ReconfigureTime = time.Millisecond // keep programming cheap
	rig, err := stack.NewNode(stack.NodeConfig{
		Manager:   manager.Config{Node: "slonode", DeviceID: "slo-A"},
		Cost:      cost,
		TimeScale: 1.0, // modelled time is slept for real
		Listen:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rig.Close() })
	return rig
}

// runCopyTask pushes one write -> copy -> read task of n bytes through the
// queue and waits for completion.
func runCopyTask(t *testing.T, ctx ocl.Context, q ocl.CommandQueue, k ocl.Kernel, n int) {
	t.Helper()
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Release()
	defer out.Release()
	for i, arg := range []any{in, out, int32(n)} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, n)
	if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, n)
	if _, err := q.EnqueueReadBuffer(out, false, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
}

func burnState(eng *alert.Engine, sloName string) alert.State {
	for _, st := range eng.Statuses() {
		if st.Rule == "SLOFastBurn" && st.Labels["slo"] == sloName && st.Labels["sli"] == "latency" {
			return st.State
		}
	}
	return alert.StateInactive
}

func TestSLOSurgeEndToEnd(t *testing.T) {
	rig := newSLORig(t)

	libFlight := flightrec.New(flightrec.Config{Process: "library"})
	defer libFlight.Close()
	client, err := remote.Dial(remote.Config{
		ClientName: "payments", // the SLO subject: manager labels series tenant=payments
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

	// Observability plane: the scraper pulls the manager's real /metrics
	// endpoint into a TSDB on a simulated clock, the SLO engine derives
	// burn-rate rules, and a page captures pprof snapshots on disk.
	metricsSrv := httptest.NewServer(rig.Handler())
	defer metricsSrv.Close()
	db := metrics.NewTSDB(time.Hour)
	scraper := metrics.NewScraper(db, 5*time.Second)
	scraper.AddTarget("slo-A", metricsSrv.URL+"/metrics")
	start := time.Unix(1700000000, 0)
	now := start
	scraper.Now = func() time.Time { return now }

	obj, err := slo.ParseObjective("payments:p99<25ms:99.9%:10m")
	if err != nil {
		t.Fatal(err)
	}
	sloEng := slo.NewEngine(db)
	sloEng.Add(obj)
	sloEng.Now = func() time.Time { return now }
	sloEng.Windows = []slo.BurnWindow{
		{Name: "fast", Severity: "page", Factor: 14.4, Long: 60 * time.Second, Short: 10 * time.Second},
	}

	captureDir := t.TempDir()
	capture := &obs.ProfileCapture{Dir: captureDir}
	alerts := alert.NewEngine(alert.Config{
		OnFire: func(rule alert.Rule, _ alert.Status) {
			if _, err := capture.Capture(rule.Name); err != nil {
				t.Errorf("profile capture: %v", err)
			}
		},
	})
	alerts.Add(sloEng.Rules()...)

	// Healthy baseline: 4 KiB tasks finish in well under a millisecond of
	// board time; scrape and evaluate every simulated 5s for a minute.
	for i := 1; i <= 12; i++ {
		runCopyTask(t, cctx, q, k, 4096)
		runCopyTask(t, cctx, q, k, 4096)
		now = start.Add(time.Duration(i) * 5 * time.Second)
		scraper.ScrapeOnce()
		alerts.EvalOnce(now)
	}
	if st := burnState(alerts, "payments"); st != alert.StateInactive {
		t.Fatalf("healthy baseline: SLOFastBurn state %v", st)
	}

	// Tenant surge: every 1 MiB task sleeps ~40ms of modelled PCIe time,
	// far past the 25ms target. The fast-burn page must fire within the
	// 60s long window — i.e. within a handful of surge scrapes.
	fired := false
	for i := 1; i <= 12 && !fired; i++ {
		for j := 0; j < 3; j++ {
			runCopyTask(t, cctx, q, k, 1<<20)
		}
		now = now.Add(5 * time.Second)
		scraper.ScrapeOnce()
		alerts.EvalOnce(now)
		fired = burnState(alerts, "payments") == alert.StateFiring
	}
	if !fired {
		t.Fatal("SLOFastBurn never fired during a full-surge minute")
	}

	// The page captured goroutine+heap profiles through the OnFire hook.
	files := capture.SortedFiles()
	if len(files) < 2 {
		t.Fatalf("alert-triggered capture left %d files, want goroutine+heap", len(files))
	}

	// /debug/slo shows the depleted budget and carries an exemplar trace.
	rr := httptest.NewRecorder()
	sloEng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	var reports []slo.Report
	if err := json.Unmarshal(rr.Body.Bytes(), &reports); err != nil {
		t.Fatalf("decoding /debug/slo: %v\n%s", err, rr.Body.String())
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	lat := reports[0].Latency
	if !lat.HasData {
		t.Fatal("latency SLI has no data")
	}
	if lat.BudgetRemaining > 0.01 {
		t.Fatalf("budget remaining %.3f after a full surge, want depleted", lat.BudgetRemaining)
	}
	if lat.ExemplarTrace == "" {
		t.Fatal("burning latency SLI carries no exemplar trace")
	}

	// The exemplar is a real distributed trace: it must resolve to a
	// flight in the manager's recorder AND the client library's — the
	// operator can go straight from the burning budget to the latency
	// breakdown.
	traceID, err := obs.ParseTraceID(lat.ExemplarTrace)
	if err != nil {
		t.Fatalf("exemplar trace %q: %v", lat.ExemplarTrace, err)
	}
	if _, ok := rig.Manager.Flight().FlightFor(traceID); !ok {
		t.Fatalf("exemplar trace %s has no manager flight", lat.ExemplarTrace)
	}
	if _, ok := libFlight.FlightFor(traceID); !ok {
		t.Fatalf("exemplar trace %s has no client-library flight", lat.ExemplarTrace)
	}
}
