package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/metrics"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Sample(); id != 0 {
		t.Fatalf("nil tracer sampled trace %v", id)
	}
	if id := tr.NewSpan(); id != 0 {
		t.Fatalf("nil tracer allocated span %v", id)
	}
	tr.Record(Span{Trace: 1})
	tr.End(1, 2, 0, "call", "", time.Now())
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer holds spans: %v", got)
	}
}

func TestSampleRates(t *testing.T) {
	never := New(Config{Component: "c", SampleRate: 0})
	always := New(Config{Component: "c", SampleRate: 1})
	for i := 0; i < 1000; i++ {
		if id := never.Sample(); id != 0 {
			t.Fatalf("rate-0 tracer sampled %v", id)
		}
		if id := always.Sample(); id == 0 {
			t.Fatal("rate-1 tracer skipped a trace")
		}
	}
	// A fractional rate should land near its expectation over many draws.
	half := New(Config{Component: "c", SampleRate: 0.5})
	hits := 0
	for i := 0; i < 10000; i++ {
		if half.Sample() != 0 {
			hits++
		}
	}
	if hits < 4000 || hits > 6000 {
		t.Fatalf("rate-0.5 sampled %d/10000", hits)
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	tr := New(Config{Component: "c", RingSize: 4})
	for i := 1; i <= 6; i++ {
		tr.Record(Span{Trace: TraceID(i), ID: SpanID(i), Stage: "call"})
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	for i, sp := range got {
		if want := TraceID(i + 3); sp.Trace != want {
			t.Fatalf("span %d: trace %v, want %v (oldest-first eviction)", i, sp.Trace, want)
		}
	}
	// Untraced spans never land in the ring.
	tr.Record(Span{Trace: 0, Stage: "call"})
	if len(tr.Spans()) != 4 || tr.Spans()[3].Trace != 6 {
		t.Fatal("untraced span entered the ring")
	}
}

func TestSpanJSONHexIDs(t *testing.T) {
	sp := Span{Trace: 0xabc, ID: 0x1, Parent: 0x2, Component: "library", Stage: "call",
		Start: time.Unix(10, 0).UTC(), Duration: 1500 * time.Nanosecond}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"trace":"0000000000000abc"`) {
		t.Fatalf("trace id not hex-encoded: %s", b)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != sp.Trace || back.ID != sp.ID || back.Parent != sp.Parent || back.Duration != sp.Duration {
		t.Fatalf("round trip mismatch: %+v != %+v", back, sp)
	}
}

func TestStageHistogramsExported(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{Component: "manager", Registry: reg,
		Labels: metrics.Labels{"device": "fpga0"}})
	tr.Record(Span{Trace: 1, ID: 2, Stage: "queue-wait", Duration: 2 * time.Millisecond})
	tr.Record(Span{Trace: 1, ID: 3, Stage: "execute", Duration: 5 * time.Millisecond})
	text := reg.Render()
	for _, want := range []string{
		"bf_stage_seconds_bucket",
		`stage="queue-wait"`,
		`stage="execute"`,
		`component="manager"`,
		`device="fpga0"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHandlerFilters(t *testing.T) {
	tr := New(Config{Component: "c", RingSize: 16})
	for i := 1; i <= 5; i++ {
		tr.Record(Span{Trace: TraceID(i%2 + 1), ID: SpanID(i), Stage: "call"})
	}
	get := func(url string) (int, []Span) {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var spans []Span
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
		}
		return rec.Code, spans
	}
	if code, spans := get("/debug/spans"); code != 200 || len(spans) != 5 {
		t.Fatalf("unfiltered: code %d, %d spans", code, len(spans))
	}
	if code, spans := get("/debug/spans?n=2"); code != 200 || len(spans) != 2 || spans[1].ID != 5 {
		t.Fatalf("?n=2: code %d, spans %v", code, spans)
	}
	if code, spans := get("/debug/spans?trace=0000000000000002"); code != 200 || len(spans) != 3 {
		t.Fatalf("?trace=2: code %d, %d spans", code, len(spans))
	}
	if code, _ := get("/debug/spans?n=bogus"); code != 400 {
		t.Fatalf("bad n: code %d, want 400", code)
	}
	if code, _ := get("/debug/spans?trace=zz"); code != 400 {
		t.Fatalf("bad trace: code %d, want 400", code)
	}
}

func TestServeTailEncodeFailure(t *testing.T) {
	// +Inf is not representable in JSON: the encoder must fail and the
	// handler must answer with an error status, not a truncated 200.
	rec := httptest.NewRecorder()
	ServeTail(rec, httptest.NewRequest("GET", "/debug/tasks", nil), []float64{1, math.Inf(1)})
	if rec.Code != 500 {
		t.Fatalf("encode failure answered %d, want 500", rec.Code)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := New(Config{Component: "c", RingSize: 64, SampleRate: 1, Registry: reg})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					trace := tr.Sample()
					tr.End(trace, tr.NewSpan(), 0, "call", "", time.Now())
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		tr.Spans()
		reg.Render()
	}
	close(stop)
	wg.Wait()
}

func TestEvictedForCountsAndHeader(t *testing.T) {
	tr := New(Config{Component: "c", RingSize: 4})
	for i := 0; i < 4; i++ {
		tr.Record(Span{Trace: 7, ID: SpanID(i + 1), Stage: "call"})
	}
	// Two more records overwrite the two oldest trace-7 spans.
	tr.Record(Span{Trace: 9, ID: 100, Stage: "call"})
	tr.Record(Span{Trace: 9, ID: 101, Stage: "call"})
	if n, exact := tr.EvictedFor(7); n != 2 || !exact {
		t.Fatalf("EvictedFor(7) = %d, exact=%v; want 2, true", n, exact)
	}
	if n, exact := tr.EvictedFor(9); n != 0 || !exact {
		t.Fatalf("EvictedFor(9) = %d, exact=%v; want 0, true", n, exact)
	}

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	rec := get("/debug/spans?trace=0000000000000007")
	if rec.Code != 200 {
		t.Fatalf("trace query: code %d", rec.Code)
	}
	if got := rec.Header().Get("X-Spans-Evicted"); got != "2" {
		t.Fatalf("X-Spans-Evicted = %q, want \"2\"", got)
	}
	if got := rec.Header().Get("X-Spans-Evicted-Exact"); got != "" {
		t.Fatalf("X-Spans-Evicted-Exact = %q, want unset for an exact count", got)
	}
	var spans []Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].ID != 3 || spans[1].ID != 4 {
		t.Fatalf("surviving trace-7 spans = %v, want IDs 3,4", spans)
	}
	// A trace with no evictions carries no header at all.
	if got := get("/debug/spans?trace=0000000000000009").Header().Get("X-Spans-Evicted"); got != "" {
		t.Fatalf("X-Spans-Evicted on un-evicted trace = %q, want unset", got)
	}
}

func TestEvictedMapOverflowTurnsInexact(t *testing.T) {
	// A size-1 ring makes every record past the first an eviction of a
	// distinct trace, so the per-trace map hits evictedCap quickly and
	// resets into evictedOther — after which counts are lower bounds.
	tr := New(Config{Component: "c", RingSize: 1})
	for i := 1; i <= evictedCap+2; i++ {
		tr.Record(Span{Trace: TraceID(i), ID: 1, Stage: "call"})
	}
	if _, exact := tr.EvictedFor(TraceID(1)); exact {
		t.Fatal("EvictedFor stayed exact after the eviction map overflowed")
	}
	// The ring now holds trace evictedCap+2; one more record evicts it
	// into the fresh post-reset map, so its count is 1 but inexact.
	last := TraceID(evictedCap + 2)
	tr.Record(Span{Trace: last + 1, ID: 1, Stage: "call"})
	if n, exact := tr.EvictedFor(last); n != 1 || exact {
		t.Fatalf("EvictedFor(last) = %d, exact=%v; want 1, false", n, exact)
	}
	rec := httptest.NewRecorder()
	url := "/debug/spans?trace=" + last.String()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if got := rec.Header().Get("X-Spans-Evicted"); got != "1" {
		t.Fatalf("X-Spans-Evicted = %q, want \"1\"", got)
	}
	if got := rec.Header().Get("X-Spans-Evicted-Exact"); got != "false" {
		t.Fatalf("X-Spans-Evicted-Exact = %q, want \"false\"", got)
	}
}

// TestRingGrowsOnDemand: a tracer that records nothing holds no ring (a
// process builds several and most sample nothing), and growing into the
// ring instead of starting with it full of zero spans changes nothing
// about what Spans returns at any fill level.
func TestRingGrowsOnDemand(t *testing.T) {
	idle := New(Config{Component: "c"})
	if idle.buf != nil || idle.size != 4096 {
		t.Fatalf("idle tracer: %d spans allocated, capacity %d; want none, 4096", cap(idle.buf), idle.size)
	}
	if got := idle.Spans(); len(got) != 0 {
		t.Fatalf("idle tracer returned %d spans", len(got))
	}
	const ring = 5
	tr := New(Config{Component: "c", RingSize: ring})
	for n := 1; n <= 3*ring+2; n++ {
		tr.Record(Span{Trace: TraceID(n), Stage: "call"})
		got := tr.Spans()
		first := n - ring + 1 // the oldest span still retained
		if first < 1 {
			first = 1
		}
		if len(got) != n-first+1 || cap(tr.buf) > 2*ring {
			t.Fatalf("after %d spans: kept %d (cap %d), want %d", n, len(got), cap(tr.buf), n-first+1)
		}
		for i, sp := range got {
			if sp.Trace != TraceID(first+i) {
				t.Fatalf("after %d spans: position %d holds trace %d, want %d", n, i, sp.Trace, first+i)
			}
		}
	}
}

func TestRegisterPprofMountsRoutes(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}
