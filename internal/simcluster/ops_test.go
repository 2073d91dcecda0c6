package simcluster

// End-to-end ops-plane tests: the alert engine must notice a faulted
// Device Manager through the scrape pipeline (firing after the rule's
// `for`-duration, resolving after recovery), and one traced task must
// leave correlated structured log events in more than one process's
// ring, retrievable through the same fetch/merge path `blastctl logs
// -trace` uses.

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/rpc"
)

// faultListener wraps every accepted connection in an rpc.FaultConn and
// lets the test blackhole all of them at once — the canonical wedged
// metrics endpoint: TCP accepts, responses never arrive.
type faultListener struct {
	net.Listener

	mu        sync.Mutex
	conns     []*rpc.FaultConn
	blackhole bool
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := rpc.InjectFaults(c)
	l.mu.Lock()
	fc.DropWrites(l.blackhole)
	l.conns = append(l.conns, fc)
	l.mu.Unlock()
	return fc, nil
}

// SetBlackhole toggles write-dropping on every live and future conn.
func (l *faultListener) SetBlackhole(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.blackhole = on
	for _, fc := range l.conns {
		fc.DropWrites(on)
	}
}

// TestScrapeAlertFiresAndResolves drives the full detection pipeline
// against a manager whose metrics endpoint wedges mid-run: scraper →
// bf_scrape_up series → ScrapeDown rule (10s For) → firing gauge and
// logged transition → resolution once the endpoint answers again.
func TestScrapeAlertFiresAndResolves(t *testing.T) {
	rig := newChaosRig(t, manager.Config{DeviceID: "ops-A"})
	defer rig.Close()

	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &faultListener{Listener: raw}
	metricsSrv := &http.Server{Handler: rig.Handler()}
	go metricsSrv.Serve(fl)
	defer metricsSrv.Close()

	// Simulated time drives scrape timestamps and rule evaluation; real
	// time only bounds the wedged scrapes' timeouts.
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	db := metrics.NewTSDB(time.Minute)
	scraper := metrics.NewScraper(db, time.Second)
	scraper.Timeout = 200 * time.Millisecond
	scraper.Now = func() time.Time { return now }
	scraper.AddTarget("fpga-ops-A", "http://"+raw.Addr().String()+"/metrics")

	log := logx.New(logx.Config{Component: "registry"})
	scraper.OnHealth = func(target string, up bool, err error) {
		if up {
			log.Info("scrape target recovered", "target", target)
		} else {
			log.Warn("scrape target down", "target", target, "err", err)
		}
	}
	reg := metrics.NewRegistry()
	engine := alert.NewEngine(alert.Config{Log: log.Named("alert"), Registry: reg})
	engine.Add(alert.DefaultRules(db)...)

	step := func() {
		scraper.ScrapeOnce()
		engine.EvalOnce(now)
		now = now.Add(2 * time.Second)
	}

	alertState := func(rule string) (alert.Status, bool) {
		for _, st := range engine.Statuses() {
			if st.Rule == rule {
				return st, true
			}
		}
		return alert.Status{}, false
	}

	// Healthy baseline: the series exists, the rule stays inactive.
	step()
	if st, ok := alertState("ScrapeDown"); !ok || st.State != alert.StateInactive {
		t.Fatalf("after healthy scrape: status %+v ok=%v, want inactive", st, ok)
	}

	// Wedge the endpoint. The first failing scrape puts the rule in
	// pending; it must NOT fire before the 10s For elapses.
	fl.SetBlackhole(true)
	step() // t+2s: first failure -> pending
	if st, _ := alertState("ScrapeDown"); st.State != alert.StatePending {
		t.Fatalf("first failing scrape: state = %v, want pending", st.State)
	}
	if engine.FiringCount() != 0 {
		t.Fatal("ScrapeDown fired before its For duration")
	}
	step() // t+4s
	step() // t+6s
	step() // t+8s
	step() // t+10s
	step() // t+12s: >= 10s since the breach began -> firing
	st, _ := alertState("ScrapeDown")
	if st.State != alert.StateFiring {
		t.Fatalf("after sustained failures: state = %v, want firing", st.State)
	}
	if !strings.Contains(reg.Render(), `bf_alerts_firing{rule="ScrapeDown",target="fpga-ops-A"} 1`) {
		t.Errorf("firing gauge not exported:\n%s", reg.Render())
	}

	// Recover: the next healthy scrape resolves the alert.
	fl.SetBlackhole(false)
	step()
	if st, _ := alertState("ScrapeDown"); st.State != alert.StateResolved {
		t.Fatalf("after recovery: state = %v, want resolved", st.State)
	}
	if !strings.Contains(reg.Render(), `bf_alerts_firing{rule="ScrapeDown",target="fpga-ops-A"} 0`) {
		t.Errorf("firing gauge not cleared:\n%s", reg.Render())
	}

	// The whole incident is reconstructable from the log ring alone.
	var down, recovered, fired, resolved bool
	for _, ev := range log.Tail() {
		switch ev.Msg {
		case "scrape target down":
			down = true
		case "scrape target recovered":
			recovered = true
		case "alert firing":
			fired = true
		case "alert resolved":
			resolved = true
		}
	}
	if !down || !recovered || !fired || !resolved {
		t.Errorf("incident not fully logged: down=%v recovered=%v fired=%v resolved=%v\n%v",
			down, recovered, fired, resolved, log.Tail())
	}
}

// TestLogsCorrelatedAcrossProcesses runs one traced task whose kernel
// fails through a real Remote Library <-> Device Manager pair, each with
// its own log ring served over HTTP, and asserts that fetching both rings
// filtered by the task's trace ID — the exact path `blastctl logs -trace
// <id>` takes — yields the failure from both components. A task that
// succeeds logs nothing: its flight is its record.
func TestLogsCorrelatedAcrossProcesses(t *testing.T) {
	mgrLog := logx.New(logx.Config{Component: "manager"})
	libLog := logx.New(logx.Config{Component: "library"})

	rig := newChaosRig(t, manager.Config{DeviceID: "ops-B", Log: mgrLog})
	defer rig.Close()

	libFlight := flightrec.New(flightrec.Config{Process: "library"})
	defer libFlight.Close()
	client, err := remote.Dial(remote.Config{
		ClientName: "ops-client",
		Managers:   []string{rig.Addr},
		Transport:  remote.TransportGRPC,
		Tracer:     obs.New(1),
		Flight:     libFlight,
		Log:        libLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, q, k := openLoopback(t, client)

	payload := []byte("correlate me")
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One byte past both buffers: the kernel fails on the board.
	for i, arg := range []any{in, out, int32(len(payload) + 1)} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err == nil {
		t.Fatal("a task whose kernel failed finished without error")
	}

	trace := sampledFlight(t, libFlight)

	// Each process serves its own ring, as cmd/devicemanager and
	// cmd/gateway do.
	mgrSrv := httptest.NewServer(mgrLog.Handler())
	defer mgrSrv.Close()
	libSrv := httptest.NewServer(libLog.Handler())
	defer libSrv.Close()

	// The manager's "task failed" event lands after the failure
	// notification is on the wire; poll the fetch/merge path briefly.
	q1 := logx.Query{Trace: trace}
	hc := &http.Client{Timeout: 5 * time.Second}
	var merged []logx.Event
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var rings [][]logx.Event
		for _, base := range []string{mgrSrv.URL, libSrv.URL} {
			ring, err := logx.FetchRing(hc, base, q1)
			if err != nil {
				t.Fatal(err)
			}
			rings = append(rings, ring)
		}
		merged = logx.Merge(rings...)
		if len(componentsOf(merged)) >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	comps := componentsOf(merged)
	if !comps["manager"] || !comps["library"] {
		t.Fatalf("trace %s not correlated across processes: components %v in\n%v",
			trace, comps, merged)
	}
	for _, ev := range merged {
		if ev.Trace != trace {
			t.Errorf("event %q carries trace %s, want %s", ev.Msg, ev.Trace, trace)
		}
	}
	var taskFailed, opFailed bool
	for _, ev := range merged {
		switch {
		case ev.Component == "manager" && ev.Msg == "task failed":
			taskFailed = true
		case ev.Component == "library" && ev.Msg == "operation failed":
			opFailed = true
		}
	}
	if !taskFailed || !opFailed {
		t.Errorf("failure events missing: manager task failed=%v, library operation failed=%v\n%v", taskFailed, opFailed, merged)
	}
}

func componentsOf(events []logx.Event) map[string]bool {
	out := make(map[string]bool)
	for _, ev := range events {
		out[ev.Component] = true
	}
	return out
}
