package metrics

import (
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", Labels{"fn": "sobel-1"})
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotonic
	if c.Value() != 3.5 {
		t.Fatalf("counter = %v", c.Value())
	}
	g := r.Gauge("queue_depth", "Tasks queued.", nil)
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	// Same name+labels returns the same series.
	c2 := r.Counter("requests_total", "Total requests.", Labels{"fn": "sobel-1"})
	c2.Inc()
	if c.Value() != 4.5 {
		t.Fatalf("series not shared: %v", c.Value())
	}
}

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("bf_tasks_total", "Tasks executed.", Labels{"device": "fpga0", "node": "B"}).Add(12)
	r.Gauge("bf_utilization", "FPGA time utilization.", nil).Set(0.42)
	text := r.Render()
	for _, want := range []string{
		"# HELP bf_tasks_total Tasks executed.",
		"# TYPE bf_tasks_total counter",
		`bf_tasks_total{device="fpga0",node="B"} 12`,
		"# TYPE bf_utilization gauge",
		"bf_utilization 0.42",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q in:\n%s", want, text)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", Labels{"x": "1", "y": "two"}).Add(5)
	r.Gauge("b", "B.", nil).Set(-1.5)
	r.Gauge("c", "C.", Labels{"esc": "with space"}).Set(1e9)
	samples, err := Parse(r.Render())
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]float64)
	for _, s := range samples {
		byKey[s.SeriesKey()] = s.Value
	}
	if byKey[`a_total{x="1",y="two"}`] != 5 {
		t.Errorf("a_total = %v (keys %v)", byKey, samples)
	}
	if byKey["b"] != -1.5 {
		t.Errorf("b = %v", byKey["b"])
	}
	if byKey[`c{esc="with space"}`] != 1e9 {
		t.Errorf("c = %v", byKey)
	}
}

// TestParseReadsEscapedLabelValues pins that every label value Render
// escapes comes back from Parse unchanged. Tenant names reach label values
// unvalidated, so one odd name must not fail a whole scrape.
func TestParseReadsEscapedLabelValues(t *testing.T) {
	tenants := []string{`a"b`, `a\b`, "a # b", "line\nbreak", "ténant-名前", `}{=",`}
	r := NewRegistry()
	for i, tn := range tenants {
		r.Counter("bf_tenant_tasks_total", "Tasks.", Labels{"device": "fpga0", "tenant": tn}).Add(float64(i + 1))
	}
	h := r.Histogram("bf_tenant_wait_seconds", "Wait.", Labels{"tenant": "a # b"}, []float64{0.1})
	h.ObserveExemplar(0.05, "trace # 1")
	samples, err := Parse(r.Render())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, s := range samples {
		if s.Name == "bf_tenant_tasks_total" {
			got[s.Labels["tenant"]] = s.Value
		}
		if s.Name == "bf_tenant_wait_seconds_bucket" && s.Labels["le"] == "0.1" {
			if s.Labels["tenant"] != "a # b" || s.Exemplar == nil || s.Exemplar.TraceID != "trace # 1" {
				t.Errorf("bucket = %+v, exemplar %+v", s.Labels, s.Exemplar)
			}
		}
	}
	for i, tn := range tenants {
		if v, ok := got[tn]; !ok || v != float64(i+1) {
			t.Errorf("tenant %q: got %v, %v; want %d", tn, v, ok, i+1)
		}
	}
}

// FuzzParse checks that Parse never panics on arbitrary exposition text,
// and that a gauge with a fuzzed label value and a fuzzed value comes back
// from Render then Parse with the same name, labels and value. Every
// sample Parse accepts is appended to a TSDB and read back by Latest and
// Series: the key ingest builds and the key a query builds agree, and the
// label set the TSDB stores is the one appended.
func FuzzParse(f *testing.F) {
	f.Add("bf_tasks_total{device=\"fpga0\"} 12\n", "sobel-1", 1.5)
	f.Add("h_bucket{le=\"0.1\"} 3 # {trace_id=\"ab\"} 0.05 1719321600.123\n", `a"b`, math.Inf(-1))
	f.Add("x{k=\"a # b\"} 1 # {", "a # b\n", math.NaN())
	f.Add("# HELP x\nx{k=\"\\xff\"} -0\n", "\xff\x00}", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, text, label string, v float64) {
		db := NewTSDB(time.Hour)
		appendAndRead := func(samples []Sample) {
			for _, s := range samples {
				db.Append(time.Unix(1700000000, 0), []Sample{s})
				got, ok := db.Latest(s.Name, s.Labels)
				if !ok || !(got == s.Value || (math.IsNaN(got) && math.IsNaN(s.Value))) {
					t.Fatalf("appended %s = %v, Latest gave %v ok=%v", s.SeriesKey(), s.Value, got, ok)
				}
				if !slices.ContainsFunc(db.Series(s.Name), func(l Labels) bool { return maps.Equal(l, s.Labels) }) {
					t.Fatalf("appended %s, Series(%q) gave %v", s.SeriesKey(), s.Name, db.Series(s.Name))
				}
			}
		}
		parsed, _ := Parse(text)
		appendAndRead(parsed)

		r := NewRegistry()
		r.Gauge("fuzz_value", "Fuzzed.", Labels{"tenant": label}).Set(v)
		samples, err := Parse(r.Render())
		if err != nil {
			t.Fatalf("label %q, value %v: %v", label, v, err)
		}
		appendAndRead(samples)
		if len(samples) != 1 {
			t.Fatalf("label %q: %d samples, want 1", label, len(samples))
		}
		s := samples[0]
		sameValue := s.Value == v || (math.IsNaN(s.Value) && math.IsNaN(v))
		if s.Name != "fuzz_value" || len(s.Labels) != 1 || s.Labels["tenant"] != label || !sameValue {
			t.Fatalf("round trip of (%q, %v) gave %+v", label, v, s)
		}
	})
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"novalue",
		"name{unterminated 1",
		`name{k=nov} 1`,
		`name{k="open} 1`,
		`name{k="v"}1`,
		`name{k='v'} 1`,
		"name{k=`v`} 1",
		`name{k="\q"} 1`,
		"1badname 2",
		"name notanumber",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestParsePropertyRoundTrip(t *testing.T) {
	// Any counter value and simple label value survives render->parse.
	check := func(v float64, raw uint32) bool {
		if v != v || v < 0 { // NaN/negative not representable by counters
			v = 1
		}
		label := "v" + string(rune('a'+raw%26))
		r := NewRegistry()
		r.Counter("prop_total", "p", Labels{"k": label}).Add(v)
		samples, err := Parse(r.Render())
		if err != nil || len(samples) != 1 {
			return false
		}
		return samples[0].Value == v && samples[0].Labels["k"] == label
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTSDBRateAndAvg(t *testing.T) {
	db := NewTSDB(time.Minute)
	base := time.Unix(1000, 0)
	lbl := Labels{"device": "fpga0"}
	// Counter increasing 2 per second.
	for i := 0; i < 10; i++ {
		db.Append(base.Add(time.Duration(i)*time.Second), []Sample{
			{Name: "busy_total", Labels: lbl, Value: float64(i * 2)},
			{Name: "depth", Labels: lbl, Value: float64(i)},
		})
	}
	now := base.Add(9 * time.Second)
	rate, ok := db.Rate("busy_total", lbl, now, 20*time.Second)
	if !ok || rate < 1.99 || rate > 2.01 {
		t.Fatalf("rate = %v ok=%v, want 2", rate, ok)
	}
	avg, ok := db.Avg("depth", lbl, now, 20*time.Second)
	if !ok || avg != 4.5 {
		t.Fatalf("avg = %v ok=%v, want 4.5", avg, ok)
	}
	latest, ok := db.Latest("depth", lbl)
	if !ok || latest != 9 {
		t.Fatalf("latest = %v", latest)
	}
	if _, ok := db.Rate("missing", nil, now, time.Second); ok {
		t.Fatal("rate of unknown series must report not-ok")
	}
}

func TestTSDBCounterReset(t *testing.T) {
	db := NewTSDB(time.Minute)
	base := time.Unix(2000, 0)
	lbl := Labels{"d": "x"}
	db.Append(base, []Sample{{Name: "c_total", Labels: lbl, Value: 100}})
	// Manager restarts: counter falls back to near zero.
	db.Append(base.Add(10*time.Second), []Sample{{Name: "c_total", Labels: lbl, Value: 5}})
	rate, ok := db.Rate("c_total", lbl, base.Add(10*time.Second), time.Minute)
	if !ok || rate < 0 {
		t.Fatalf("rate after reset = %v ok=%v", rate, ok)
	}
}

func TestTSDBRetention(t *testing.T) {
	db := NewTSDB(10 * time.Second)
	base := time.Unix(3000, 0)
	lbl := Labels{"d": "x"}
	db.Append(base, []Sample{{Name: "g", Labels: lbl, Value: 1}})
	db.Append(base.Add(30*time.Second), []Sample{{Name: "g", Labels: lbl, Value: 2}})
	// Only the recent point remains; Avg over a huge window sees just it.
	avg, ok := db.Avg("g", lbl, base.Add(30*time.Second), time.Hour)
	if !ok || avg != 2 {
		t.Fatalf("avg = %v ok=%v, want 2 (old point must be evicted)", avg, ok)
	}
}

func TestTSDBSeriesDiscovery(t *testing.T) {
	db := NewTSDB(time.Minute)
	now := time.Unix(4000, 0)
	db.Append(now, []Sample{
		{Name: "util", Labels: Labels{"device": "a"}, Value: 1},
		{Name: "util", Labels: Labels{"device": "b"}, Value: 2},
		{Name: "other", Labels: Labels{"device": "c"}, Value: 3},
	})
	got := db.Series("util")
	if len(got) != 2 {
		t.Fatalf("Series = %v", got)
	}
}

func TestScraperEndToEnd(t *testing.T) {
	reg := NewRegistry()
	busy := reg.Counter("bf_busy_seconds_total", "Busy.", Labels{"device": "fpga0"})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	db := NewTSDB(time.Minute)
	sc := NewScraper(db, time.Second)
	now := time.Unix(5000, 0)
	sc.Now = func() time.Time { return now }
	sc.AddTarget("fpga0", srv.URL)

	busy.Add(1.0)
	sc.ScrapeOnce()
	now = now.Add(10 * time.Second)
	busy.Add(5.0)
	sc.ScrapeOnce()

	rate, ok := db.Rate("bf_busy_seconds_total", Labels{"device": "fpga0"}, now, time.Minute)
	if !ok {
		t.Fatal("no rate after two scrapes")
	}
	if rate < 0.49 || rate > 0.51 { // 5 seconds of busy over 10 seconds
		t.Fatalf("rate = %v, want 0.5", rate)
	}
	if err := sc.LastError("fpga0"); err != nil {
		t.Fatalf("scrape error: %v", err)
	}
	if len(sc.Targets()) != 1 {
		t.Fatalf("targets = %v", sc.Targets())
	}
}

func TestScraperRecordsErrors(t *testing.T) {
	db := NewTSDB(time.Minute)
	sc := NewScraper(db, time.Second)
	sc.AddTarget("dead", "http://127.0.0.1:1/metrics")
	sc.ScrapeOnce()
	if err := sc.LastError("dead"); err == nil {
		t.Fatal("expected scrape error for dead target")
	}
}

// TestScraperHungTargetDoesNotBlockOthers covers the head-of-line fix: a
// target that accepts the connection but never answers must cost only its
// own deadline, while healthy targets scraped in the same pass still land
// fresh samples.
func TestScraperHungTargetDoesNotBlockOthers(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("bf_live", "Liveness.", Labels{"device": "ok0"})
	g.Set(42)
	healthy := httptest.NewServer(reg.Handler())
	defer healthy.Close()

	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the scrape open until the test ends
	}))
	defer func() { close(release); hung.Close() }()

	db := NewTSDB(time.Minute)
	sc := NewScraper(db, time.Second)
	sc.Timeout = 50 * time.Millisecond
	now := time.Unix(7000, 0)
	sc.Now = func() time.Time { return now }
	sc.AddTarget("ok0", healthy.URL)
	sc.AddTarget("hung0", hung.URL)

	start := time.Now()
	sc.ScrapeOnce()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ScrapeOnce took %v; hung target must only cost its own deadline", elapsed)
	}
	if v, ok := db.Latest("bf_live", Labels{"device": "ok0"}); !ok || v != 42 {
		t.Fatalf("healthy target sample = %v/%v, want 42", v, ok)
	}
	if err := sc.LastError("hung0"); err == nil {
		t.Fatal("hung target must record a deadline error")
	}
	if err := sc.LastError("ok0"); err != nil {
		t.Fatalf("healthy target errored: %v", err)
	}
}

// An exposition past the 8 MiB bound fails its target's scrape. It must
// not be cut at the bound and parsed: the cut last line would still parse,
// as a wrong value.
func TestScrapeRejectsOversizeExposition(t *testing.T) {
	padding := strings.Repeat("# padding\n", (8<<20)/10+1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, padding)
		io.WriteString(w, "bf_x 12345\n")
	}))
	defer srv.Close()

	db := NewTSDB(time.Minute)
	sc := NewScraper(db, time.Second)
	sc.AddTarget("big", srv.URL)
	sc.ScrapeOnce()
	if err := sc.LastError("big"); err == nil {
		t.Fatal("oversize exposition scraped without error")
	}
	if v, ok := db.Latest("bf_scrape_up", Labels{"target": "big"}); !ok || v != 0 {
		t.Fatalf("bf_scrape_up = %v ok=%v, want 0", v, ok)
	}
	if v, ok := db.Latest("bf_x", nil); ok {
		t.Fatalf("bf_x stored as %v from a truncated exposition", v)
	}
}

// Parse returns strings that alias the scraped body; the TSDB keeps
// copies, so a stored series never pins a body.
func TestTSDBDoesNotPinScrapedBody(t *testing.T) {
	raw, err := os.ReadFile("testdata/manager.prom")
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw) + "bf_x_bucket{le=\"0.1\",tenant=\"t\"} 1 # {trace_id=\"00000000deadbeef\"} 0.05\n"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	inBody := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && p >= lo && p < lo+uintptr(len(body))
	}
	samples, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if last := samples[len(samples)-1]; !inBody(last.Name) || !inBody(last.Labels["tenant"]) || !inBody(last.Exemplar.TraceID) {
		t.Fatal("Parse copied the strings out of the body; this test checks nothing")
	}

	db := NewTSDB(time.Minute)
	db.Append(time.Unix(1700000000, 0), samples)
	if len(db.series) != len(samples) {
		t.Fatalf("%d series stored from %d samples", len(db.series), len(samples))
	}
	for key, st := range db.series {
		pinned := inBody(key) || inBody(st.name) || inBody(st.exemplar.TraceID)
		for k, v := range st.labels {
			pinned = pinned || inBody(k) || inBody(v)
		}
		if pinned {
			t.Fatalf("series %s points into the scraped body", key)
		}
	}
	if e, ok := db.Exemplar("bf_x_bucket", Labels{"le": "0.1", "tenant": "t"}); !ok || e.TraceID != "00000000deadbeef" {
		t.Fatalf("exemplar %+v ok=%v", e, ok)
	}
}

func TestLabelsString(t *testing.T) {
	if got := (Labels{}).String(); got != "" {
		t.Errorf("empty labels = %q", got)
	}
	l := Labels{"b": "2", "a": "1"}
	if got := l.String(); got != `{a="1",b="2"}` {
		t.Errorf("labels = %q (must be sorted)", got)
	}
}

func TestHistogramObserveAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bf_task_seconds", "Task durations.", Labels{"device": "d0"},
		[]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5.555 {
		t.Fatalf("sum = %v", h.Sum())
	}
	text := r.Render()
	for _, want := range []string{
		"# TYPE bf_task_seconds histogram",
		`bf_task_seconds_bucket{device="d0",le="0.01"} 1`,
		`bf_task_seconds_bucket{device="d0",le="0.1"} 2`,
		`bf_task_seconds_bucket{device="d0",le="1"} 3`,
		`bf_task_seconds_bucket{device="d0",le="+Inf"} 4`,
		`bf_task_seconds_sum{device="d0"} 5.555`,
		`bf_task_seconds_count{device="d0"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	// Rendered histograms parse back (le is an ordinary label).
	samples, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 6 {
		t.Fatalf("parsed %d samples", len(samples))
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "Q.", nil, []float64{1, 2, 4, 8})
	// 100 observations uniform over (0,4]: quantiles interpolate.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if q := h.Quantile(0.5); q < 1.8 || q > 2.2 {
		t.Fatalf("p50 = %v, want ~2", q)
	}
	if q := h.Quantile(0.95); q < 3.4 || q > 4.2 {
		t.Fatalf("p95 = %v, want ~3.8", q)
	}
	if !math.IsNaN(r.Histogram("empty", "E.", nil, nil).Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	if !math.IsNaN(h.Quantile(1.5)) {
		t.Fatal("out-of-range quantile must be NaN")
	}
}

func TestHistogramSeriesSharing(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("shared", "S.", Labels{"x": "1"}, []float64{1})
	b := r.Histogram("shared", "S.", Labels{"x": "1"}, []float64{99}) // buckets fixed at first use
	a.Observe(0.5)
	if b.Count() != 1 {
		t.Fatal("same name+labels must share the series")
	}
	c := r.Histogram("shared", "S.", Labels{"x": "2"}, nil)
	if c.Count() != 0 {
		t.Fatal("different labels must get a fresh series")
	}
}

// --- TSDB retention/rate edge cases the alert engine depends on ---

// A window that covers only one point of a series must not produce a
// rate: the alert engine treats a single-sample window as "no
// observation", not a zero or infinite burn rate.
func TestTSDBRateSinglePointInWindow(t *testing.T) {
	db := NewTSDB(time.Minute)
	base := time.Unix(9000, 0)
	lbl := Labels{"d": "x"}
	db.Append(base, []Sample{{Name: "c_total", Labels: lbl, Value: 1}})
	db.Append(base.Add(30*time.Second), []Sample{{Name: "c_total", Labels: lbl, Value: 2}})
	// 5s window ending now: only the second point qualifies.
	if _, ok := db.Rate("c_total", lbl, base.Add(30*time.Second), 5*time.Second); ok {
		t.Fatal("rate over a single-point window must report not-ok")
	}
	// A series with one point total behaves the same under any window.
	db.Append(base.Add(31*time.Second), []Sample{{Name: "lone_total", Labels: lbl, Value: 7}})
	if _, ok := db.Rate("lone_total", lbl, base.Add(31*time.Second), time.Hour); ok {
		t.Fatal("rate of a one-point series must report not-ok")
	}
	// Increase shares the two-point requirement.
	if _, ok := db.Increase("lone_total", lbl, base.Add(31*time.Second), time.Hour); ok {
		t.Fatal("increase of a one-point series must report not-ok")
	}
}

// A point exactly at the retention cutoff is kept: eviction drops points
// strictly before cutoff, so a scrape landing precisely retention-ago
// still anchors rate windows.
func TestTSDBRetentionCutoffBoundary(t *testing.T) {
	retention := 10 * time.Second
	db := NewTSDB(retention)
	base := time.Unix(9500, 0)
	lbl := Labels{"d": "x"}
	db.Append(base, []Sample{{Name: "c_total", Labels: lbl, Value: 1}})
	// Append exactly retention later: cutoff == base, first point survives.
	db.Append(base.Add(retention), []Sample{{Name: "c_total", Labels: lbl, Value: 3}})
	if rate, ok := db.Rate("c_total", lbl, base.Add(retention), time.Hour); !ok || rate != 0.2 {
		t.Fatalf("rate = %v ok=%v, want 0.2 (boundary point must be retained)", rate, ok)
	}
	// One nanosecond past retention: the first point is evicted and the
	// series collapses to a single sample.
	db2 := NewTSDB(retention)
	db2.Append(base, []Sample{{Name: "c_total", Labels: lbl, Value: 1}})
	db2.Append(base.Add(retention+time.Nanosecond), []Sample{{Name: "c_total", Labels: lbl, Value: 3}})
	if _, ok := db2.Rate("c_total", lbl, base.Add(retention+time.Nanosecond), time.Hour); ok {
		t.Fatal("point past retention must be evicted")
	}
}

// Latest on an expired series: eviction happens at append time, per
// series, so a series that simply stopped being scraped keeps serving
// its stale last value. Alert rules on gauges therefore pair with
// bf_scrape_up (which keeps being appended by the scraper) rather than
// trusting Latest freshness — this test pins the staleness contract.
func TestTSDBLatestOnExpiredSeries(t *testing.T) {
	retention := 10 * time.Second
	db := NewTSDB(retention)
	base := time.Unix(9900, 0)
	stale := Labels{"d": "gone"}
	live := Labels{"d": "alive"}
	db.Append(base, []Sample{{Name: "g", Labels: stale, Value: 42}})
	// Long after retention, only the live series receives appends.
	db.Append(base.Add(5*time.Minute), []Sample{{Name: "g", Labels: live, Value: 1}})
	if v, ok := db.Latest("g", stale); !ok || v != 42 {
		t.Fatalf("Latest(stale) = %v ok=%v; append-time eviction must not touch other series", v, ok)
	}
	// But any windowed query on the stale series reports not-ok...
	if _, ok := db.Avg("g", stale, base.Add(5*time.Minute), 30*time.Second); ok {
		t.Fatal("windowed query on expired series must report not-ok")
	}
	// ...and the next append to the stale series evicts its old points.
	db.Append(base.Add(5*time.Minute), []Sample{{Name: "g", Labels: stale, Value: 7}})
	if v, ok := db.Latest("g", stale); !ok || v != 7 {
		t.Fatalf("Latest after re-append = %v ok=%v, want 7", v, ok)
	}
	if _, ok := db.Rate("g", stale, base.Add(5*time.Minute), time.Hour); ok {
		t.Fatal("expired point must not survive the re-append")
	}
}

// --- scrape-health series ---

// A healthy target exports bf_scrape_up = 1 and a scrape duration; when
// it dies the next pass flips bf_scrape_up to 0 and reports the
// transition through OnHealth.
func TestScraperExportsScrapeHealth(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("bf_live", "Liveness.", Labels{"device": "fpga0"}).Set(1)
	srv := httptest.NewServer(reg.Handler())

	db := NewTSDB(time.Minute)
	sc := NewScraper(db, time.Second)
	sc.Timeout = time.Second
	now := time.Unix(8000, 0)
	sc.Now = func() time.Time { return now }

	type transition struct {
		target string
		up     bool
	}
	var mu sync.Mutex
	var transitions []transition
	sc.OnHealth = func(target string, up bool, err error) {
		mu.Lock()
		transitions = append(transitions, transition{target, up})
		mu.Unlock()
	}
	sc.AddTarget("fpga0", srv.URL)

	sc.ScrapeOnce()
	tgt := Labels{"target": "fpga0"}
	if v, ok := db.Latest("bf_scrape_up", tgt); !ok || v != 1 {
		t.Fatalf("bf_scrape_up = %v ok=%v, want 1", v, ok)
	}
	if d, ok := db.Latest("bf_scrape_duration_seconds", tgt); !ok || d < 0 {
		t.Fatalf("bf_scrape_duration_seconds = %v ok=%v", d, ok)
	}
	if len(transitions) != 0 {
		t.Fatalf("healthy first scrape must not report a transition: %v", transitions)
	}

	// Kill the target: bf_scrape_up flips to 0 even though the payload
	// scrape failed, and OnHealth reports exactly one down transition.
	srv.Close()
	now = now.Add(time.Second)
	sc.ScrapeOnce()
	now = now.Add(time.Second)
	sc.ScrapeOnce() // still down: no duplicate transition
	if v, ok := db.Latest("bf_scrape_up", tgt); !ok || v != 0 {
		t.Fatalf("bf_scrape_up after death = %v ok=%v, want 0", v, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != 1 || transitions[0] != (transition{"fpga0", false}) {
		t.Fatalf("transitions = %v, want one down transition", transitions)
	}
}
