package gateway

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/metrics"
)

// fakeClock is an injectable Now for deterministic bucket refills.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestAdmissionBucketRefills(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := NewAdmission(Budget{Rate: 1, Burst: 2})
	a.Now = clk.now

	for i := 0; i < 2; i++ {
		if ok, _ := a.Admit("t1"); !ok {
			t.Fatalf("admit %d rejected with full bucket", i)
		}
	}
	ok, retry := a.Admit("t1")
	if ok {
		t.Fatal("empty bucket must reject")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	clk.advance(time.Second) // one token accrues
	if ok, _ := a.Admit("t1"); !ok {
		t.Fatal("refilled bucket must admit")
	}
	if ok, _ := a.Admit("t1"); ok {
		t.Fatal("only one token accrued")
	}
}

func TestAdmissionTenantsIsolated(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := NewAdmission(Budget{Rate: 0, Burst: 1})
	a.Now = clk.now
	if ok, _ := a.Admit("a"); !ok {
		t.Fatal("tenant a first request must pass")
	}
	if ok, _ := a.Admit("a"); ok {
		t.Fatal("tenant a exhausted its bucket")
	}
	// Tenant b has its own bucket.
	if ok, _ := a.Admit("b"); !ok {
		t.Fatal("tenant b must have a fresh bucket")
	}
	// Zero-rate tenants get a finite, long Retry-After.
	if _, retry := a.Admit("a"); retry != time.Hour {
		t.Fatalf("zero-rate retry = %v", retry)
	}
}

func TestAdmissionPriorityMultiplies(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := NewAdmission(Budget{Rate: 1, Burst: 2})
	a.Now = clk.now
	a.SetBudget("gold", Budget{Rate: 1, Burst: 2, Priority: 3})
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := a.Admit("gold"); ok {
			admitted++
		}
	}
	if admitted != 6 { // burst 2 × priority 3
		t.Fatalf("gold admitted %d, want 6", admitted)
	}
	snap := a.Snapshot()
	if len(snap) != 1 || snap[0].Tenant != "gold" || snap[0].Priority != 3 ||
		snap[0].Admitted != 6 || snap[0].Rejected != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestParseAdmission(t *testing.T) {
	a, err := ParseAdmission([]string{"50:100", "gold=500:1000:2"})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a.Now = clk.now
	for i := 0; i < 100; i++ {
		if ok, _ := a.Admit("anon"); !ok {
			t.Fatalf("default burst exhausted at %d, want 100", i)
		}
	}
	if ok, _ := a.Admit("anon"); ok {
		t.Fatal("default burst must be 100")
	}

	for _, bad := range badAdmissionSpecs {
		if _, err := ParseAdmission(bad); err == nil {
			t.Fatalf("ParseAdmission(%v) must fail", bad)
		}
	}
}

var badAdmissionSpecs = [][]string{
	{},             // no default
	{"gold=1:1"},   // override only, still no default
	{"1:1", "2:2"}, // default twice
	{"abc:1"},      // bad rate
	{"1:0"},        // burst < 1
	{"1:1:0"},      // priority < 1
	{"=1:1"},       // empty tenant
	{"1"},          // missing burst
	{"1:1:1:1"},    // too many fields
	{"NaN:1"},      // not a number
	{"Inf:1"},      // unbounded rate
	{"1:Inf"},      // unbounded burst
}

// FuzzParseAdmission feeds two -admission values joined by a newline: no
// input panics, and every budget an accepted set installs has a finite,
// non-negative rate (zero is a burst-only tenant), a finite burst of at
// least one token and a priority that is unset or at least 1.
func FuzzParseAdmission(f *testing.F) {
	f.Add("50:100\ngold=500:1000:2")
	for _, specs := range badAdmissionSpecs {
		f.Add(strings.Join(specs, "\n"))
	}
	f.Fuzz(func(t *testing.T, s string) {
		adm, err := ParseAdmission(strings.Split(s, "\n"))
		if err != nil {
			return
		}
		budgets := []Budget{adm.def}
		for _, b := range adm.overrides {
			budgets = append(budgets, b)
		}
		for _, b := range budgets {
			if !(b.Rate >= 0) || math.IsInf(b.Rate, 0) || !(b.Burst >= 1) || math.IsInf(b.Burst, 0) || b.Priority < 0 {
				t.Fatalf("ParseAdmission(%q) accepted %+v", s, b)
			}
		}
	})
}

func TestHandlerRejectsOverBudget(t *testing.T) {
	g, _ := startGateway(t)
	g.Admission = NewAdmission(Budget{Rate: 0, Burst: 2})
	if err := g.Deploy("echo", 1, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 1)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	for i := 0; i < 2; i++ {
		resp, err := srv.Client().Get(srv.URL + "/function/echo")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %v, want 200", i, resp.Status)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/function/echo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over budget = %v, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	st := g.Stats("echo")
	if st.Admitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Rejected requests never reach an endpoint.
	if st.Requests != 2 {
		t.Fatalf("requests = %d, want 2", st.Requests)
	}

	// A different tenant (header) draws from its own bucket.
	req, _ := http.NewRequest("GET", srv.URL+"/function/echo", nil)
	req.Header.Set(TenantHeader, "other")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant = %v, want 200", resp.Status)
	}
}

func TestHandlerCountsAdmissionMetrics(t *testing.T) {
	g, _ := startGateway(t)
	g.Admission = NewAdmission(Budget{Rate: 0, Burst: 1})
	g.Metrics = metrics.NewRegistry()
	if err := g.Deploy("echo", 1, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 1)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := srv.Client().Get(srv.URL + "/function/echo")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	out := g.Metrics.Render()
	if !strings.Contains(out, `bf_gateway_admitted_total{function="echo"} 1`) {
		t.Fatalf("admitted counter missing:\n%s", out)
	}
	if !strings.Contains(out, `bf_gateway_rejected_total{function="echo"} 2`) {
		t.Fatalf("rejected counter missing:\n%s", out)
	}
}

func TestDebugGatewayEndpoint(t *testing.T) {
	g, _ := startGateway(t)
	g.Admission = NewAdmission(Budget{Rate: 0, Burst: 1})
	if err := g.Deploy("echo", 2, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 2)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, _ := srv.Client().Get(srv.URL + "/function/echo")
		resp.Body.Close()
	}
	st := g.Debug()
	if st.Router != RouterRoundRobin || !st.Admission {
		t.Fatalf("debug header = %+v", st)
	}
	if len(st.Functions) != 1 || st.Functions[0].Replicas != 2 ||
		st.Functions[0].Admitted != 1 || st.Functions[0].Rejected != 2 {
		t.Fatalf("debug functions = %+v", st.Functions)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "echo" {
		t.Fatalf("debug tenants = %+v", st.Tenants)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/gateway")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/gateway: %v %v", resp.Status, err)
	}
	resp.Body.Close()
}
