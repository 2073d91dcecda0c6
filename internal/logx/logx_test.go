package logx

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/obs"
)

func fixedClock(start time.Time) func() time.Time {
	var mu sync.Mutex
	t := start
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func testLogger(ring int) *Logger {
	return New(Config{
		Component: "test",
		RingSize:  ring,
		Now:       fixedClock(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)),
	})
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Debug("nothing", "k", "v")
	l.Info("nothing")
	l.Warn("nothing")
	l.Error("nothing", "err", errors.New("x"))
	if got := l.Tail(); got != nil {
		t.Errorf("nil logger Tail = %v", got)
	}
	if l.Named("sub") != nil || l.With("a", "b") != nil {
		t.Error("derivations of a nil logger must stay nil")
	}
}

func TestLevelsAndFields(t *testing.T) {
	l := testLogger(16)
	l.Debug("started", "port", 8080)
	l.Warn("lease expired", "client", "sobel-1", "wait", 250*time.Millisecond)
	evs := l.Tail()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Level != LevelDebug || evs[1].Level != LevelWarn {
		t.Errorf("levels = %v, %v", evs[0].Level, evs[1].Level)
	}
	if evs[0].Fields[0] != (Field{Key: "port", Value: "8080"}) {
		t.Errorf("int field = %+v", evs[0].Fields[0])
	}
	if evs[1].Fields[1] != (Field{Key: "wait", Value: "250ms"}) {
		t.Errorf("duration field = %+v", evs[1].Fields[1])
	}
	line := evs[1].Format()
	for _, want := range []string{"WARN", "test:", "lease expired", "client=sobel-1", "wait=250ms"} {
		if !strings.Contains(line, want) {
			t.Errorf("Format %q missing %q", line, want)
		}
	}
}

func TestMinLevelGate(t *testing.T) {
	var sunk []Event
	l := New(Config{
		Component: "gate",
		Sink:      func(ev Event) { sunk = append(sunk, ev) },
		SinkLevel: LevelWarn,
	})
	l.Debug("ring only")
	l.Info("ring only")
	l.Warn("ring and sink")
	if evs := l.Tail(); len(evs) != 3 {
		t.Fatalf("ring kept %d events, want all 3", len(evs))
	}
	if len(sunk) != 1 || sunk[0].Msg != "ring and sink" {
		t.Fatalf("sink got %v, want only the warn", sunk)
	}
}

func TestRingWraps(t *testing.T) {
	l := testLogger(4)
	for i := 0; i < 10; i++ {
		l.Info("event", "i", i)
	}
	evs := l.Tail()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if evs[0].Fields[0].Value != "6" || evs[3].Fields[0].Value != "9" {
		t.Errorf("ring kept wrong window: %v .. %v", evs[0].Fields, evs[3].Fields)
	}
}

func TestTraceCorrelation(t *testing.T) {
	l := testLogger(16)
	l.Warn("task failed", "client", "mm-1", "trace", obs.TraceID(0xdead))
	l.With("trace", obs.TraceID(0xf00d)).Info("derived")
	evs := l.Tail()
	if evs[0].Trace != 0xdead {
		t.Errorf("kv trace not diverted: %+v", evs[0])
	}
	for _, f := range evs[0].Fields {
		if f.Key == "trace" {
			t.Errorf("trace leaked into fields: %+v", evs[0].Fields)
		}
	}
	if evs[1].Trace != 0xf00d {
		t.Errorf("derived trace not carried: %+v", evs[1])
	}
	if !strings.Contains(evs[0].Format(), "trace=000000000000dead") {
		t.Errorf("Format lacks trace: %q", evs[0].Format())
	}
}

func TestNamedSharesRing(t *testing.T) {
	root := testLogger(16)
	sub := root.Named("sub")
	root.Info("from root")
	sub.Info("from sub")
	evs := root.Tail()
	if len(evs) != 2 {
		t.Fatalf("ring has %d events, want 2 (Named must share the ring)", len(evs))
	}
	if evs[0].Component != "test" || evs[1].Component != "sub" {
		t.Errorf("components = %q, %q", evs[0].Component, evs[1].Component)
	}
}

func TestWithFields(t *testing.T) {
	l := testLogger(16).With("device", "fpga-A")
	l.Info("first")
	l.Info("second", "extra", 1)
	evs := l.Tail()
	for _, ev := range evs {
		if len(ev.Fields) == 0 || ev.Fields[0] != (Field{Key: "device", Value: "fpga-A"}) {
			t.Errorf("With field missing on %+v", ev)
		}
	}
	if len(evs[1].Fields) != 2 {
		t.Errorf("per-call fields lost: %+v", evs[1].Fields)
	}
	if len(evs[0].Fields) != 1 {
		t.Errorf("per-call fields leaked across events: %+v", evs[0].Fields)
	}
}

func TestHandlerFilters(t *testing.T) {
	l := testLogger(32)
	l.Named("alpha").Info("a info")
	l.Named("alpha").Warn("a warn", "trace", obs.TraceID(0xabc))
	l.Named("beta").Error("b error")

	fetch := func(query string) []Event {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/logs"+query, nil)
		w := httptest.NewRecorder()
		l.Handler().ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("GET %s: %d %s", query, w.Code, w.Body)
		}
		var evs []Event
		if err := json.Unmarshal(w.Body.Bytes(), &evs); err != nil {
			t.Fatalf("decoding: %v", err)
		}
		return evs
	}

	if evs := fetch(""); len(evs) != 3 {
		t.Errorf("unfiltered = %d events, want 3", len(evs))
	}
	if evs := fetch("?level=warn"); len(evs) != 2 {
		t.Errorf("level=warn = %d events, want 2", len(evs))
	}
	if evs := fetch("?component=beta"); len(evs) != 1 || evs[0].Msg != "b error" {
		t.Errorf("component=beta = %v", evs)
	}
	if evs := fetch("?trace=0000000000000abc"); len(evs) != 1 || evs[0].Msg != "a warn" {
		t.Errorf("trace filter = %v", evs)
	}
	if evs := fetch("?n=1"); len(evs) != 1 || evs[0].Msg != "b error" {
		t.Errorf("n=1 = %v", evs)
	}

	req := httptest.NewRequest("GET", "/debug/logs?level=bogus", nil)
	w := httptest.NewRecorder()
	l.Handler().ServeHTTP(w, req)
	if w.Code != 400 {
		t.Errorf("bad level returned %d, want 400", w.Code)
	}
}

// A process that never answers must not wedge the fetch: the caller's
// client timeout bounds it.
func TestFetchRingHonoursClientTimeout(t *testing.T) {
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	defer srv.Close()
	defer close(stop)
	start := time.Now()
	if _, err := FetchRing(&http.Client{Timeout: 100 * time.Millisecond}, srv.URL, Query{}); err == nil {
		t.Fatal("fetch from a process that never answers succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("fetch returned after %v, want about the 100ms client timeout", d)
	}
}

func TestFetchRingAndMerge(t *testing.T) {
	a := testLogger(16)
	b := New(Config{
		Component: "b",
		RingSize:  16,
		Now:       fixedClock(time.Date(2026, 8, 5, 12, 0, 0, 500_000_000, time.UTC)),
	})
	a.Info("a one", "trace", obs.TraceID(7))
	b.Info("b one", "trace", obs.TraceID(7))
	a.Info("a untraced")

	srvA := httptest.NewServer(a.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(b.Handler())
	defer srvB.Close()

	ringA, err := FetchRing(srvA.Client(), srvA.URL, Query{Trace: 7})
	if err != nil {
		t.Fatal(err)
	}
	ringB, err := FetchRing(srvB.Client(), srvB.URL, Query{Trace: 7})
	if err != nil {
		t.Fatal(err)
	}
	merged := Merge(ringA, ringB)
	if len(merged) != 2 {
		t.Fatalf("merged %d events, want 2: %v", len(merged), merged)
	}
	if !merged[0].Time.Before(merged[1].Time) {
		t.Errorf("merge not time-ordered: %v", merged)
	}
	comps := map[string]bool{}
	for _, ev := range merged {
		comps[ev.Component] = true
	}
	if !comps["test"] || !comps["b"] {
		t.Errorf("merged events missing a component: %v", comps)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := testLogger(4)
	l.Warn("round trip", "k", "v w", "trace", obs.TraceID(0x1234))
	data, err := json.Marshal(l.Tail())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"level":"warn"`) {
		t.Errorf("level not marshalled as name: %s", data)
	}
	if !strings.Contains(string(data), `"trace":"0000000000001234"`) {
		t.Errorf("trace not hex: %s", data)
	}
	var back []Event
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Level != LevelWarn || back[0].Trace != 0x1234 || back[0].Fields[0].Value != "v w" {
		t.Errorf("round trip mangled event: %+v", back[0])
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn, "warning": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("fatal"); err == nil {
		t.Error("ParseLevel accepted unknown level")
	}
}

// TestMergeDeterministic pins the merged-timeline ordering contract:
// identical timestamps sort by process name, then by per-process
// sequence — so two processes logging in the same instant interleave the
// same way on every invocation, regardless of input ring order.
func TestMergeDeterministic(t *testing.T) {
	at := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	ring := func(proc string, n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Time: at, Proc: proc, Seq: uint64(i + 1), Msg: proc}
		}
		return evs
	}
	a, b, c := ring("alpha", 3), ring("beta", 3), ring("gamma", 2)

	want := Merge(a, b, c)
	// Every permutation of input rings yields the identical timeline.
	for _, rings := range [][][]Event{
		{c, b, a}, {b, a, c}, {c, a, b}, {a, c, b}, {b, c, a},
	} {
		got := Merge(rings...)
		if len(got) != len(want) {
			t.Fatalf("merge length %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Proc != want[i].Proc || got[i].Seq != want[i].Seq {
				t.Fatalf("permuted merge diverges at %d: got %s/%d, want %s/%d",
					i, got[i].Proc, got[i].Seq, want[i].Proc, want[i].Seq)
			}
		}
	}
	// The canonical order itself: process name breaks the timestamp tie,
	// sequence breaks the process tie.
	for i := 1; i < len(want); i++ {
		p, q := want[i-1], want[i]
		if p.Proc > q.Proc || (p.Proc == q.Proc && p.Seq >= q.Seq) {
			t.Fatalf("order violated at %d: %s/%d before %s/%d", i, p.Proc, p.Seq, q.Proc, q.Seq)
		}
	}
	// Distinct timestamps still dominate every tie-break.
	late := []Event{{Time: at.Add(time.Second), Proc: "aaaa", Seq: 1}}
	merged := Merge(late, ring("zzz", 1))
	if merged[0].Proc != "zzz" || merged[1].Proc != "aaaa" {
		t.Fatalf("time ordering lost to tie-breaks: %+v", merged)
	}
}

// TestLoggerStampsProcSeq pins that Log fills the merge keys: the
// configured process name and a monotonic per-core sequence.
func TestLoggerStampsProcSeq(t *testing.T) {
	l := New(Config{
		Component: "manager",
		Process:   "manager/fpga-A",
		RingSize:  8,
		Now:       fixedClock(time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)),
	})
	l.Info("one")
	l.Named("sub").Info("two")
	evs := l.Tail()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Proc != "manager/fpga-A" {
			t.Fatalf("event %d proc = %q", i, ev.Proc)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, ev.Seq)
		}
	}
	// Process defaults to the component when unset.
	d := testLogger(4)
	d.Info("x")
	if got := d.Tail()[0].Proc; got != "test" {
		t.Fatalf("default proc = %q", got)
	}
}

// TestFieldValues pins how every value kind is stringified, including the
// malformed argument lists: the values of one event share one backing
// string, and no field may come out shifted or truncated by that.
func TestFieldValues(t *testing.T) {
	l := testLogger(16).With("dev", "fpga-A")
	l.Debug("all kinds",
		"s", "plain", "n", 123456, "i64", int64(-7), "u64", uint64(1<<40), "u32", uint32(9),
		"ok", true, "f", 0.25, "d", 1500*time.Microsecond, "empty", "", "nil", nil,
		"err", errors.New("boom"), "stringer", LevelWarn, "other", []int{1, 2},
		"trace", obs.TraceID(0xfeed), 42, "skipped", "dangling")
	ev := l.Tail()[0]
	want := []Field{
		{"dev", "fpga-A"}, {"s", "plain"}, {"n", "123456"}, {"i64", "-7"}, {"u64", "1099511627776"}, {"u32", "9"},
		{"ok", "true"}, {"f", "0.25"}, {"d", "1.5ms"}, {"empty", ""}, {"nil", "<nil>"},
		{"err", "boom"}, {"stringer", "WARN"}, {"other", "[1 2]"},
		{"!BAD-KEY", "42"}, {"!MISSING-VALUE", "dangling"},
	}
	if len(ev.Fields) != len(want) {
		t.Fatalf("fields = %+v, want %+v", ev.Fields, want)
	}
	for i, f := range ev.Fields {
		if f != want[i] {
			t.Errorf("field %d = %+v, want %+v", i, f, want[i])
		}
	}
	if ev.Trace != 0xfeed {
		t.Errorf("trace ID = %v", ev.Trace)
	}
}

// TestRingOnlyEventAllocatesTwice is the logging budget of a hot path: an
// event that only reaches the ring costs the field slice and one string
// for all its formatted values. The arguments are boxed once outside the
// measured call, as a hot path that holds what it logs would have them;
// what a call site pays to box a fresh value is that site's to avoid.
func TestRingOnlyEventAllocatesTwice(t *testing.T) {
	l := New(Config{Component: "test", RingSize: 64})
	kv := []any{"client", "sobel-1", "ops", 3000, "device_time", 1234 * time.Microsecond,
		"failed", false, "bytes", uint64(1 << 33), "share", 0.125}
	l.Debug("warm", kv...) // first events grow the ring
	for len(l.Tail()) < 64 {
		l.Debug("warm", kv...)
	}
	if n := testing.AllocsPerRun(200, func() { l.Debug("task executed", kv...) }); n > 2 {
		t.Fatalf("a six-field ring-only event allocates %.0f times, budget 2", n)
	}
}
