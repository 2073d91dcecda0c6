package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestObserveExemplarNativeBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", Labels{"tenant": "t1"}, []float64{0.1, 1})
	h.ObserveExemplar(0.05, "aaaaaaaaaaaaaaaa") // native bucket 0.1
	h.ObserveExemplar(0.5, "bbbbbbbbbbbbbbbb")  // native bucket 1
	h.ObserveExemplar(5, "cccccccccccccccc")    // +Inf
	ex := h.Exemplars()
	if ex["0.1"].TraceID != "aaaaaaaaaaaaaaaa" || ex["1"].TraceID != "bbbbbbbbbbbbbbbb" ||
		ex["+Inf"].TraceID != "cccccccccccccccc" {
		t.Fatalf("exemplars %+v", ex)
	}
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	// Cumulative bucket counts are unaffected by the exemplar path.
	if got := h.Quantile(0.5); got <= 0 {
		t.Fatalf("quantile %v", got)
	}
}

func TestExemplarEvictionUnderChurn(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", nil, []float64{1})
	// Thousands of observations churn through one bucket; storage stays
	// one exemplar per bucket and the latest wins.
	for i := 0; i < 5000; i++ {
		h.ObserveExemplar(0.5, fmt.Sprintf("%016x", i))
	}
	ex := h.Exemplars()
	if len(ex) != 1 {
		t.Fatalf("want 1 exemplar, got %d", len(ex))
	}
	if ex["1"].TraceID != fmt.Sprintf("%016x", 4999) {
		t.Fatalf("latest should win, got %q", ex["1"].TraceID)
	}
	if len(h.s.exemplars) != 2 { // one per bucket incl. +Inf, churn-independent
		t.Fatalf("exemplar slots %d", len(h.s.exemplars))
	}
}

func TestEmptyTraceDegradesToObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", nil, []float64{1})
	h.ObserveExemplar(0.5, "")
	if h.Count() != 1 {
		t.Fatalf("count %d", h.Count())
	}
	if len(h.Exemplars()) != 0 {
		t.Fatalf("exemplars %+v", h.Exemplars())
	}
}

func TestRenderWithoutExemplarsByteIdentical(t *testing.T) {
	render := func(observe func(Histogram)) string {
		r := NewRegistry()
		h := r.Histogram("bf_x_seconds", "help.", Labels{"tenant": "t"}, []float64{0.1, 1})
		observe(h)
		return r.Render()
	}
	plain := render(func(h Histogram) { h.Observe(0.05); h.Observe(0.5) })
	viaExemplarPath := render(func(h Histogram) {
		h.ObserveExemplar(0.05, "") // empty trace: must not change the text
		h.Observe(0.5)
	})
	if plain != viaExemplarPath {
		t.Fatalf("render diverged:\n%s\nvs\n%s", plain, viaExemplarPath)
	}
	if strings.Contains(plain, " # ") {
		t.Fatalf("plain render leaked exemplar syntax:\n%s", plain)
	}
}

func TestExemplarRenderParseRoundTrip(t *testing.T) {
	oldNow := exemplarNow
	fixed := time.Unix(1700000000, 123e6)
	exemplarNow = func() time.Time { return fixed }
	defer func() { exemplarNow = oldNow }()

	r := NewRegistry()
	h := r.Histogram("bf_x_seconds", "help.", Labels{"tenant": "t"}, []float64{0.1})
	h.ObserveExemplar(0.05, "00000000deadbeef")
	text := r.Render()
	if !strings.Contains(text, `# {trace_id="00000000deadbeef"} 0.05 1700000000.123`) {
		t.Fatalf("render:\n%s", text)
	}
	samples, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var found *Sample
	for i := range samples {
		if samples[i].Exemplar != nil {
			if found != nil {
				t.Fatalf("multiple exemplars parsed")
			}
			found = &samples[i]
		}
	}
	if found == nil {
		t.Fatalf("no exemplar parsed from:\n%s", text)
	}
	if found.Name != "bf_x_seconds_bucket" || found.Labels["le"] != "0.1" {
		t.Fatalf("exemplar on wrong series: %+v", found)
	}
	e := found.Exemplar
	if e.TraceID != "00000000deadbeef" || e.Value != 0.05 || !e.Time.Equal(fixed) {
		t.Fatalf("exemplar %+v", e)
	}
}

func TestParseExemplarWithoutTimestamp(t *testing.T) {
	samples, err := Parse(`m_bucket{le="1"} 3 # {trace_id="ab"} 0.5` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].Exemplar == nil || samples[0].Exemplar.TraceID != "ab" ||
		samples[0].Value != 3 {
		t.Fatalf("sample %+v", samples[0])
	}
	for _, bad := range []string{
		`m 1 # trace 0.5`,
		`m 1 # {trace_id="x"}`,
		`m 1 # {trace_id="x"} notanumber`,
		`m 1 # {trace_id="x} 0.5`,
	} {
		if _, err := Parse(bad + "\n"); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestTSDBStoresLatestExemplar(t *testing.T) {
	db := NewTSDB(time.Hour)
	lbl := Labels{"le": "+Inf", "tenant": "t1"}
	t0 := time.Unix(1700000000, 0)
	db.Append(t0, []Sample{{Name: "m_bucket", Labels: lbl, Value: 1,
		Exemplar: &Exemplar{TraceID: "aa", Value: 0.2, Time: t0}}})
	db.Append(t0.Add(time.Second), []Sample{{Name: "m_bucket", Labels: lbl, Value: 2,
		Exemplar: &Exemplar{TraceID: "bb", Value: 0.3, Time: t0.Add(time.Second)}}})
	db.Append(t0.Add(2*time.Second), []Sample{{Name: "m_bucket", Labels: lbl, Value: 2}})
	e, ok := db.Exemplar("m_bucket", lbl)
	if !ok || e.TraceID != "bb" {
		t.Fatalf("exemplar %+v ok=%v", e, ok)
	}
	if _, ok := db.Exemplar("m_bucket", Labels{"le": "1"}); ok {
		t.Fatal("exemplar for unknown series")
	}
}

// TestIncreaseAtRetentionBoundary covers the window math burn-rate
// rules lean on: points ageing out of retention must not fabricate
// increases, and a window larger than retention degrades to the
// retained points.
func TestIncreaseAtRetentionBoundary(t *testing.T) {
	db := NewTSDB(time.Minute)
	lbl := Labels{"tenant": "t1"}
	t0 := time.Unix(1700000000, 0)
	for i := 0; i <= 9; i++ { // counter +10 every 10s for 90s
		db.Append(t0.Add(time.Duration(i)*10*time.Second),
			[]Sample{{Name: "c", Labels: lbl, Value: float64(10 * i)}})
	}
	now := t0.Add(90 * time.Second)
	// Retention kept [30s..90s]: 7 points, values 30..90.
	if inc, ok := db.Increase("c", lbl, now, 2*time.Minute); !ok || inc != 60 {
		t.Fatalf("over-retention window: inc=%v ok=%v", inc, ok)
	}
	if inc, ok := db.Increase("c", lbl, now, 30*time.Second); !ok || inc != 30 {
		t.Fatalf("in-window increase: inc=%v ok=%v", inc, ok)
	}
	// A window reaching exactly one retained point yields no increase.
	if _, ok := db.Increase("c", lbl, now, 5*time.Second); ok {
		t.Fatal("single-point window should not report an increase")
	}
	// Delta on a shrinking gauge goes negative (no reset fallback).
	for i := 0; i <= 3; i++ {
		db.Append(now.Add(time.Duration(i)*10*time.Second),
			[]Sample{{Name: "g", Labels: lbl, Value: float64(100 - 20*i)}})
	}
	if d, ok := db.Delta("g", lbl, now.Add(30*time.Second), time.Minute); !ok || d != -60 {
		t.Fatalf("delta %v ok=%v", d, ok)
	}
}

func TestScraperLocalTarget(t *testing.T) {
	db := NewTSDB(time.Hour)
	s := NewScraper(db, time.Second)
	now := time.Unix(1700000000, 0)
	s.Now = func() time.Time { return now }

	reg := NewRegistry()
	h := reg.Histogram("bf_x_seconds", "help.", Labels{"tenant": "t"}, []float64{0.1})
	h.ObserveExemplar(0.05, "00000000deadbeef")
	s.AddLocalTarget("self", reg)
	s.ScrapeOnce()

	if v, ok := db.Latest("bf_x_seconds_count", Labels{"tenant": "t"}); !ok || v != 1 {
		t.Fatalf("scraped count %v ok=%v", v, ok)
	}
	if v, ok := db.Latest("bf_scrape_up", Labels{"target": "self"}); !ok || v != 1 {
		t.Fatalf("scrape up %v ok=%v", v, ok)
	}
	// Exemplars ride the same text path as HTTP scrapes.
	e, ok := db.Exemplar("bf_x_seconds_bucket", Labels{"tenant": "t", "le": "0.1"})
	if !ok || e.TraceID != "00000000deadbeef" {
		t.Fatalf("exemplar %+v ok=%v", e, ok)
	}
}

func TestScraperStartJitter(t *testing.T) {
	s := NewScraper(NewTSDB(time.Hour), 10*time.Second)
	for i := 0; i < 100; i++ {
		d := s.startJitter()
		if d < 0 || d >= 10*time.Second {
			t.Fatalf("jitter %v out of [0, interval)", d)
		}
	}
}
