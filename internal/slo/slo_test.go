package slo

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/metrics"
)

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("checkout:p99<50ms:99.9%")
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if o.Name != "checkout" || !near(o.Quantile, 0.99) || o.Target != 50*time.Millisecond ||
		!near(o.Goal, 0.999) || o.window() != time.Hour {
		t.Fatalf("parsed %+v", o)
	}
	o, err = ParseObjective("t1:p95<2s:99%:10m")
	if err != nil {
		t.Fatal(err)
	}
	if !near(o.Quantile, 0.95) || o.Target != 2*time.Second || !near(o.Goal, 0.99) || o.Window != 10*time.Minute {
		t.Fatalf("parsed %+v", o)
	}
	for _, bad := range badObjectives {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) accepted", bad)
		}
	}
}

var badObjectives = []string{
	"", "justname", "a:b:c", "x:p99:99%", "x:p99<50ms:99.9%:zz",
	"x:p0<50ms:99%", "x:p100<50ms:99%", "x:p99<50ms:0%", "x:p99<50ms:100%",
	":p99<50ms:99%", "x:q99<50ms:99%", "x:p99<-5ms:99%",
	"x:pNaN<50ms:99%", "x:p99<50ms:NaN%",
}

// FuzzParseObjective: no input panics, and an accepted objective
// re-parses from its String form to the same objective (the window
// made explicit).
func FuzzParseObjective(f *testing.F) {
	f.Add("checkout:p99<50ms:99.9%")
	f.Add("t1:p95<2s:99%:10m")
	for _, s := range badObjectives {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		o, err := ParseObjective(s)
		if err != nil {
			return
		}
		back, err := ParseObjective(o.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", s, o.String(), err)
		}
		o.Window = o.window()
		if back != o {
			t.Fatalf("%q: round trip through %q gives %+v, want %+v", s, o.String(), back, o)
		}
	})
}

func TestFlagRepeatable(t *testing.T) {
	var f Flag
	if err := f.Set("a:p99<50ms:99.9%"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("b:p95<1s:99%"); err != nil {
		t.Fatal(err)
	}
	if len(f.Objectives) != 2 || f.Objectives[1].Name != "b" {
		t.Fatalf("objectives %+v", f.Objectives)
	}
	if err := f.Set("nope"); err == nil {
		t.Fatal("bad objective accepted")
	}
}

func TestGoodAtTarget(t *testing.T) {
	buckets := []bkt{{0.05, 60}, {0.1, 80}, {math.Inf(1), 100}}
	if g := goodAtTarget(buckets, 0.1); g != 80 {
		t.Fatalf("at bound: %v", g)
	}
	if g := goodAtTarget(buckets, 0.075); g != 70 { // midway through the 0.05..0.1 bucket
		t.Fatalf("interpolated: %v", g)
	}
	if g := goodAtTarget(buckets, 1); g != 80 { // beyond last finite: conservative
		t.Fatalf("beyond finite: %v", g)
	}
}

// appendLatency appends one scrape of the cumulative latency buckets
// for tenant t1: cum01 requests at/under 100ms, cumInf total. An
// optional exemplar rides on the +Inf bucket.
func appendLatency(db *metrics.TSDB, at time.Time, cum01, cumInf float64, exemplar *metrics.Exemplar) {
	db.Append(at, []metrics.Sample{
		{Name: "bf_task_latency_seconds_bucket",
			Labels: metrics.Labels{"tenant": "t1", "le": "0.1"}, Value: cum01},
		{Name: "bf_task_latency_seconds_bucket",
			Labels: metrics.Labels{"tenant": "t1", "le": "+Inf"}, Value: cumInf,
			Exemplar: exemplar},
	})
}

func stateOf(t *testing.T, eng *alert.Engine, rule, sli string) alert.State {
	t.Helper()
	for _, st := range eng.Statuses() {
		if st.Rule == rule && st.Labels["slo"] == "t1" && st.Labels["sli"] == sli {
			return st.State
		}
	}
	return alert.StateInactive
}

// TestFastBurnGolden drives a known series through the multi-window
// burn math: healthy baseline → total surge → recovery, asserting the
// exact scrape at which the fast-burn rule fires (the long window must
// agree, not just the spiky short one) and the exact scrape at which it
// resolves (the short window clears long before the long one).
func TestFastBurnGolden(t *testing.T) {
	db := metrics.NewTSDB(time.Hour)
	eng := NewEngine(db)
	obj, err := ParseObjective("t1:p99<100ms:99.9%:1m")
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(obj)
	eng.Windows = []BurnWindow{
		{Name: "fast", Severity: "page", Factor: 14.4, Long: 60 * time.Second, Short: 10 * time.Second},
	}

	alerts := alert.NewEngine(alert.Config{})
	alerts.Add(eng.Rules()...)

	start := time.Unix(1700000000, 0)
	now := start
	eng.Now = func() time.Time { return now }

	// Healthy baseline: +10 fast requests per 5s scrape for 60s.
	cum01, cumInf := 0.0, 0.0
	appendLatency(db, now, 0, 0, nil)
	for i := 1; i <= 12; i++ {
		now = start.Add(time.Duration(i) * 5 * time.Second)
		cum01 += 10
		cumInf += 10
		appendLatency(db, now, cum01, cumInf, nil)
		alerts.EvalOnce(now)
	}
	if st := stateOf(t, alerts, "SLOFastBurn", "latency"); st != alert.StateInactive {
		t.Fatalf("healthy baseline: state %v", st)
	}

	// Surge: every request blows the target. Short window burns
	// immediately, but the long window's bad fraction only crosses
	// 14.4 x budget (0.144) at the second surge scrape: 10/120 = 0.083
	// at t+65s, 20/140-ish = 0.167 at t+70s.
	ex := &metrics.Exemplar{TraceID: "00000000deadbeef", Value: 0.5, Time: now}
	now = start.Add(65 * time.Second)
	cumInf += 10
	appendLatency(db, now, cum01, cumInf, ex)
	alerts.EvalOnce(now)
	if st := stateOf(t, alerts, "SLOFastBurn", "latency"); st != alert.StateInactive {
		t.Fatalf("one surge scrape: long window should still veto, state %v", st)
	}

	now = start.Add(70 * time.Second)
	cumInf += 10
	appendLatency(db, now, cum01, cumInf, ex)
	alerts.EvalOnce(now)
	if st := stateOf(t, alerts, "SLOFastBurn", "latency"); st != alert.StateFiring {
		t.Fatalf("two surge scrapes: want firing, state %v", st)
	}

	// Budget over the 1m objective window is gone: bad fraction 0.167
	// against a 0.1% budget.
	rep := eng.ReportAt(now)
	if len(rep) != 1 {
		t.Fatalf("reports: %d", len(rep))
	}
	lat := rep[0].Latency
	if !lat.HasData || lat.BudgetRemaining != 0 {
		t.Fatalf("latency SLI %+v: want depleted budget", lat)
	}
	if lat.ExemplarTrace != "00000000deadbeef" {
		t.Fatalf("exemplar trace %q", lat.ExemplarTrace)
	}
	if len(lat.Burns) != 1 || !lat.Burns[0].Breached {
		t.Fatalf("burns %+v", lat.Burns)
	}

	// Recovery: fast requests again. One clean scrape still leaves bad
	// increase inside the 10s short window; the second clears it and
	// resolves the alert even though the 60s long window stays burnt.
	now = start.Add(75 * time.Second)
	cum01 += 10
	cumInf += 10
	appendLatency(db, now, cum01, cumInf, nil)
	alerts.EvalOnce(now)
	if st := stateOf(t, alerts, "SLOFastBurn", "latency"); st != alert.StateFiring {
		t.Fatalf("one clean scrape: want still firing, state %v", st)
	}

	now = start.Add(80 * time.Second)
	cum01 += 10
	cumInf += 10
	appendLatency(db, now, cum01, cumInf, nil)
	alerts.EvalOnce(now)
	if st := stateOf(t, alerts, "SLOFastBurn", "latency"); st != alert.StateResolved {
		t.Fatalf("short window clean: want resolved, state %v", st)
	}
}

// TestSlowBurnCatchesMildDegradation: a steady 10% bad fraction burns
// 10x budget — under the fast factor (14.4), over the slow one (6).
func TestSlowBurnCatchesMildDegradation(t *testing.T) {
	db := metrics.NewTSDB(time.Hour)
	eng := NewEngine(db)
	obj, err := ParseObjective("t1:p99<100ms:99.9%:10m")
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(obj)
	eng.Windows = []BurnWindow{
		{Name: "fast", Severity: "page", Factor: 14.4, Long: 60 * time.Second, Short: 10 * time.Second},
		{Name: "slow", Severity: "warn", Factor: 6, Long: 60 * time.Second, Short: 10 * time.Second},
	}
	alerts := alert.NewEngine(alert.Config{})
	alerts.Add(eng.Rules()...)

	start := time.Unix(1700000000, 0)
	now := start
	cum01, cumInf := 0.0, 0.0
	appendLatency(db, now, 0, 0, nil)
	for i := 1; i <= 14; i++ {
		now = start.Add(time.Duration(i) * 5 * time.Second)
		cum01 += 9
		cumInf += 10
		appendLatency(db, now, cum01, cumInf, nil)
		alerts.EvalOnce(now)
	}
	if st := stateOf(t, alerts, "SLOSlowBurn", "latency"); st != alert.StateFiring {
		t.Fatalf("slow burn: want firing, state %v", st)
	}
	if st := stateOf(t, alerts, "SLOFastBurn", "latency"); st != alert.StateInactive {
		t.Fatalf("fast burn: want inactive at 10x, state %v", st)
	}
}

func TestAvailabilitySLI(t *testing.T) {
	db := metrics.NewTSDB(time.Hour)
	eng := NewEngine(db)
	obj, err := ParseObjective("fn1:p99<100ms:99%:1m")
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(obj)
	start := time.Unix(1700000000, 0)
	for i := 0; i <= 6; i++ {
		at := start.Add(time.Duration(i) * 10 * time.Second)
		db.Append(at, []metrics.Sample{
			{Name: "bf_function_requests_total",
				Labels: metrics.Labels{"function": "fn1"}, Value: float64(100 * i)},
			{Name: "bf_function_errors_total",
				Labels: metrics.Labels{"function": "fn1"}, Value: float64(5 * i)},
		})
	}
	now := start.Add(60 * time.Second)
	eng.Now = func() time.Time { return now }
	rep := eng.ReportAt(now)
	av := rep[0].Availability
	if !av.HasData {
		t.Fatal("availability SLI has no data")
	}
	if av.Total != 600 || av.Good != 570 {
		t.Fatalf("good/total = %v/%v", av.Good, av.Total)
	}
	// 5% bad against a 1% budget: overspent, clamped to zero.
	if av.BudgetRemaining != 0 {
		t.Fatalf("budget remaining %v", av.BudgetRemaining)
	}
	// Latency SLI has no matching histogram: reports no data, full budget.
	if rep[0].Latency.HasData || rep[0].Latency.BudgetRemaining != 1 {
		t.Fatalf("latency SLI %+v", rep[0].Latency)
	}
}

func TestHandlerServesReports(t *testing.T) {
	db := metrics.NewTSDB(time.Hour)
	eng := NewEngine(db)
	obj, _ := ParseObjective("t1:p99<100ms:99.9%:1m")
	eng.Add(obj)
	now := time.Unix(1700000000, 0)
	eng.Now = func() time.Time { return now }
	appendLatency(db, now.Add(-10*time.Second), 0, 0, nil)
	appendLatency(db, now, 10, 10, nil)

	rec := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	var got []Report
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v (%s)", err, rec.Body.String())
	}
	if len(got) != 1 || got[0].Name != "t1" || !got[0].Latency.HasData {
		t.Fatalf("reports %+v", got)
	}
	if got[0].Latency.BudgetRemaining != 1 {
		t.Fatalf("healthy budget %v", got[0].Latency.BudgetRemaining)
	}

	rec = httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo?slo=absent", nil))
	if body := rec.Body.String(); body != "[]\n" && body != "null\n" {
		t.Fatalf("filtered body %q", body)
	}
}

// TestHandlerFlatSeriesIsValidJSON pins the regression where histogram
// series exist in the TSDB but show zero increase over the window (all
// traffic predates the first scrape): bucketQuantile is NaN there, and
// an unguarded NaN in the report made json.Marshal fail — turning the
// whole /debug/slo page into a 500.
func TestHandlerFlatSeriesIsValidJSON(t *testing.T) {
	db := metrics.NewTSDB(time.Hour)
	eng := NewEngine(db)
	obj, _ := ParseObjective("t1:p99<100ms:99.9%:1m")
	eng.Add(obj)
	now := time.Unix(1700000000, 0)
	eng.Now = func() time.Time { return now }
	// Two scrapes with identical cumulative counts: the series are
	// present (ok=true) but carry zero events in the window.
	appendLatency(db, now.Add(-10*time.Second), 30, 30, nil)
	appendLatency(db, now, 30, 30, nil)

	rec := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got []Report
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v (%s)", err, rec.Body.String())
	}
	if len(got) != 1 || got[0].Latency.HasData {
		t.Fatalf("flat series must report no data: %+v", got)
	}
	if q := got[0].Latency.ActualQuantile; q != 0 {
		t.Fatalf("flat series quantile %v, want omitted", q)
	}
}

func TestDefaultBurnWindows(t *testing.T) {
	ws := DefaultBurnWindows(time.Hour)
	if len(ws) != 2 || ws[0].Name != "fast" || ws[1].Name != "slow" {
		t.Fatalf("windows %+v", ws)
	}
	if ws[0].Factor != 14.4 || ws[0].Severity != "page" {
		t.Fatalf("fast %+v", ws[0])
	}
	if ws[1].Factor != 6 || ws[1].Severity != "warn" {
		t.Fatalf("slow %+v", ws[1])
	}
	for _, w := range ws {
		if w.Short >= w.Long {
			t.Fatalf("window %q: short %v >= long %v", w.Name, w.Short, w.Long)
		}
	}
	// Tiny test windows stay usable: shorts are floored, ordering holds.
	for _, w := range DefaultBurnWindows(2 * time.Minute) {
		if w.Short < 10*time.Second || w.Short >= w.Long {
			t.Fatalf("floored window %+v", w)
		}
	}
}
