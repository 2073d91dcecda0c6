package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"slices"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Sample(); id != 0 {
		t.Fatalf("nil tracer sampled trace %v", id)
	}
}

func TestSampleRates(t *testing.T) {
	never := New(0)
	always := New(1)
	for i := 0; i < 1000; i++ {
		if id := never.Sample(); id != 0 {
			t.Fatalf("rate-0 tracer sampled %v", id)
		}
		if id := always.Sample(); id == 0 {
			t.Fatal("rate-1 tracer skipped a trace")
		}
	}
	// A fractional rate should land near its expectation over many draws.
	half := New(0.5)
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

func TestTraceIDJSONHex(t *testing.T) {
	b, err := json.Marshal(struct {
		Trace TraceID `json:"trace"`
	}{0xabc})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"trace":"0000000000000abc"}` {
		t.Fatalf("trace id not hex-encoded: %s", b)
	}
	var back struct {
		Trace TraceID `json:"trace"`
	}
	if err := json.Unmarshal(b, &back); err != nil || back.Trace != 0xabc {
		t.Fatalf("round trip: %v, %v", back.Trace, err)
	}
	if err := json.Unmarshal([]byte(`{"trace":"zz"}`), &back); err == nil {
		t.Fatal("a non-hex trace id decoded")
	}
}

// TestTailParsesN pins the one ?n= grammar of the debug endpoints: a
// non-negative decimal integer, nothing before or after it.
func TestTailParsesN(t *testing.T) {
	ring := []int{1, 2, 3, 4, 5}
	for _, c := range []struct {
		n    string
		code int
		want []int
	}{
		{"", 200, ring},
		{"2", 200, []int{4, 5}},
		{"0", 200, []int{}},
		{"9", 200, ring},
		{"5abc", 400, nil},
		{"0x10", 400, nil},
		{"-1", 400, nil},
		{"bogus", 400, nil},
		{" 2", 400, nil},
	} {
		url := "/debug/tasks"
		if c.n != "" {
			url += "?n=" + neturl.QueryEscape(c.n)
		}
		rec := httptest.NewRecorder()
		ServeTail(rec, httptest.NewRequest("GET", url, nil), ring)
		if rec.Code != c.code {
			t.Errorf("?n=%q: code %d, want %d", c.n, rec.Code, c.code)
			continue
		}
		if c.code != 200 {
			continue
		}
		var got []int
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("?n=%q: %v", c.n, err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("?n=%q: %v, want %v", c.n, got, c.want)
		}
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
