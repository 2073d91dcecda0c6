package gateway

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blastfunction/internal/cluster"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/metrics"
)

// noopFactory builds endpoints that answer 200 with nothing: what is left
// of a request is the front door's own work.
func noopFactory(cluster.Instance) (Endpoint, error) {
	return HandlerEndpoint{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}, nil
}

func serveOnce(g *Gateway, fn string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/function/"+fn, nil))
	return rec
}

// TestMetricsWiredAfterDeploy: the handles a function counts into are
// resolved by its first request, not at Deploy, so a registry attached in
// between is the one that sees the request — and sees only the series
// that counted something.
func TestMetricsWiredAfterDeploy(t *testing.T) {
	g, _ := startGateway(t)
	if err := g.Deploy("echo", 1, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 1)
	g.Metrics = metrics.NewRegistry()
	g.Flight = flightrec.New(flightrec.Config{Process: "gateway"})
	defer g.Flight.Close()
	for i := 0; i < 2; i++ {
		if rec := serveOnce(g, "echo"); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	out := g.Metrics.Render()
	for _, want := range []string{
		`bf_function_requests_total{function="echo"} 2`,
		`bf_function_latency_seconds_count{function="echo"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, absent := range []string{"bf_function_errors_total", "bf_gateway_"} {
		if strings.Contains(out, absent) {
			t.Errorf("%s rendered though nothing failed and nothing was gated:\n%s", absent, out)
		}
	}
	flights := g.Flight.Snapshot().Flights
	if len(flights) != 2 {
		t.Fatalf("%d flights, want 2", len(flights))
	}
	var kinds []string
	for _, ev := range flights[0].Events {
		kinds = append(kinds, string(ev.Kind))
		if ev.Kind == flightrec.KindRouted && !strings.HasPrefix(ev.Detail, RouterRoundRobin+" -> ") {
			t.Errorf("routed detail = %q, want the router's Name first", ev.Detail)
		}
	}
	if got := strings.Join(kinds, ","); got != "admitted,routed,complete" {
		t.Errorf("flight reads %s, want admitted,routed,complete", got)
	}
}

// TestAdmissionCountersHaveOwnHelp: the two decisions are two families,
// each documented as what it counts.
func TestAdmissionCountersHaveOwnHelp(t *testing.T) {
	g, _ := startGateway(t)
	g.Admission = NewAdmission(Budget{Rate: 0, Burst: 1})
	g.Metrics = metrics.NewRegistry()
	if err := g.Deploy("echo", 1, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 1)
	if a, r := serveOnce(g, "echo").Code, serveOnce(g, "echo").Code; a != http.StatusOK || r != http.StatusTooManyRequests {
		t.Fatalf("statuses %d, %d; want 200 then 429", a, r)
	}
	help := map[string]string{}
	for _, line := range strings.Split(g.Metrics.Render(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP bf_gateway_"); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		}
	}
	if len(help) != 2 || help["admitted_total"] == "" || help["rejected_total"] == "" ||
		help["admitted_total"] == help["rejected_total"] {
		t.Fatalf("admission help texts = %q, want one of its own for each counter", help)
	}
}

// TestServeFunctionAllocationBudget is the front door's budget with every
// signal on — metrics, flight recorder, admission, round-robin: beyond
// what the ResponseRecorder costs by itself, a request may not allocate.
// Nothing it reports into may build a label set, format a detail, box a
// status writer or canonicalize a header name.
func TestServeFunctionAllocationBudget(t *testing.T) {
	g, _ := startGateway(t)
	g.Metrics = metrics.NewRegistry()
	g.Admission = NewAdmission(Budget{Rate: 1e9, Burst: 1e9})
	g.Flight = flightrec.New(flightrec.Config{Process: "gateway", Flights: 16})
	defer g.Flight.Close()
	if err := g.Deploy("noop", 2, noopFactory); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "noop", 2)
	req := httptest.NewRequest("GET", "/function/noop", nil)
	for i := 0; i < 64; i++ { // resolve the handles, fill the flight ring
		g.serveFunction(httptest.NewRecorder(), req)
	}
	var endpoint http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	recorder := testing.AllocsPerRun(200, func() { endpoint.ServeHTTP(httptest.NewRecorder(), req) })
	served := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		if g.serveFunction(rec, req); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	t.Logf("recorder alone %.0f, served %.0f", recorder, served)
	if served > recorder {
		t.Fatalf("serveFunction allocates %.0f times, the recorder alone %.0f: budget is the recorder's", served, recorder)
	}
	if n := g.Metrics.Counter("bf_function_requests_total", "", metrics.Labels{"function": "noop"}).Value(); n < 264 {
		t.Fatalf("requests counted = %v, the budget was measured with the counters off", n)
	}
}
