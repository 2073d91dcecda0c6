package flightrec

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/obs"
)

// TestNilRecorder pins the nil-safety contract: every method on a nil
// *Recorder is a no-op, so hot paths and binaries need no nil checks.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if key := r.Begin(0, "t"); key != 0 {
		t.Fatalf("nil Begin returned %v", key)
	}
	r.Record(1, Event{Kind: KindExecute})
	r.MarkNotable(1, "x")
	r.Complete(1, time.Second, true, "cause")
	r.Close()
	if s := r.Snapshot(); len(s.Flights) != 0 {
		t.Fatalf("nil Snapshot returned flights: %+v", s)
	}
	if _, ok := r.FlightFor(1); ok {
		t.Fatal("nil FlightFor found a flight")
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	if snap := getFlight(t, srv.URL, 42); len(snap.Flights) != 0 {
		t.Fatalf("nil handler served flights: %+v", snap)
	}
}

// TestSyntheticKeys pins the always-on guarantee: unsampled tasks (zero
// trace) get distinct synthetic keys marked Synthetic, sampled ones keep
// their trace identity.
func TestSyntheticKeys(t *testing.T) {
	r := New(Config{Process: "test"})
	a := r.Begin(0, "ten")
	b := r.Begin(0, "ten")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("synthetic keys not distinct: %v, %v", a, b)
	}
	real := r.Begin(0xdeadbeef, "ten")
	if real != 0xdeadbeef {
		t.Fatalf("sampled trace rekeyed to %v", real)
	}
	fa, _ := r.FlightFor(a)
	fr, _ := r.FlightFor(real)
	if !fa.Synthetic || fr.Synthetic {
		t.Fatalf("synthetic flags wrong: a=%v real=%v", fa.Synthetic, fr.Synthetic)
	}
}

// TestRingOverflowKeepsNewest fills the ring past capacity and checks
// the oldest whole flights are evicted while the newest skeletons
// survive intact.
func TestRingOverflowKeepsNewest(t *testing.T) {
	const cap = 8
	r := New(Config{Process: "test", Flights: cap})
	keys := make([]obs.TraceID, 3*cap)
	for i := range keys {
		keys[i] = r.Begin(obs.TraceID(i+1), "ten")
		r.Record(keys[i], Event{Kind: KindExecute, Dur: time.Duration(i)})
	}
	snap := r.Snapshot()
	if len(snap.Flights) != cap {
		t.Fatalf("ring holds %d flights, want %d", len(snap.Flights), cap)
	}
	if snap.Evicted != uint64(2*cap) {
		t.Fatalf("evicted %d, want %d", snap.Evicted, 2*cap)
	}
	// The survivors are exactly the newest cap keys, oldest first.
	for i, f := range snap.Flights {
		want := keys[2*cap+i]
		if f.Trace != want {
			t.Fatalf("flight %d is %v, want %v", i, f.Trace, want)
		}
		if len(f.Events) != 1 {
			t.Fatalf("flight %v lost its events: %+v", f.Trace, f.Events)
		}
	}
	// Evicted keys are gone from the ring.
	if _, ok := r.FlightFor(keys[0]); ok {
		t.Fatal("evicted flight still resident")
	}
}

// TestCoalescing pins the identical-consecutive-event rule: Count
// increments, Dur accumulates, and a differing event breaks the run.
func TestCoalescing(t *testing.T) {
	r := New(Config{Process: "test"})
	key := r.Begin(0, "ten")
	for i := 0; i < 5; i++ {
		r.Record(key, Event{Kind: KindLease, Dur: time.Millisecond})
	}
	r.Record(key, Event{Kind: KindBufferHit})
	r.Record(key, Event{Kind: KindLease, Dur: time.Millisecond})
	f, _ := r.FlightFor(key)
	if len(f.Events) != 3 {
		t.Fatalf("got %d events, want 3 (coalesced lease run, hit, lease): %+v", len(f.Events), f.Events)
	}
	if f.Events[0].Count != 5 || f.Events[0].Dur != 5*time.Millisecond {
		t.Fatalf("coalesced run: count=%d dur=%v, want 5 and 5ms", f.Events[0].Count, f.Events[0].Dur)
	}
	if f.Events[2].Count != 0 {
		t.Fatalf("fresh lease event after a break has count %d", f.Events[2].Count)
	}
}

// TestEventCapDrops pins the per-flight cap: the earliest milestones are
// retained and the overflow is counted in Dropped.
func TestEventCapDrops(t *testing.T) {
	r := New(Config{Process: "test"})
	key := r.Begin(0, "ten")
	for i := 0; i < eventsPerFlight+6; i++ {
		// Distinct details defeat coalescing.
		r.Record(key, Event{Kind: KindUpload, Detail: strings.Repeat("x", i+1)})
	}
	f, _ := r.FlightFor(key)
	if len(f.Events) != eventsPerFlight {
		t.Fatalf("retained %d events, want %d", len(f.Events), eventsPerFlight)
	}
	if f.Dropped != 6 {
		t.Fatalf("dropped %d, want 6", f.Dropped)
	}
	if f.Events[0].Detail != "x" {
		t.Fatalf("cap did not keep the earliest milestones: %+v", f.Events)
	}
}

// TestLedgerSpill exercises the notable paths: failures spill
// immediately, routine completions do not, and FlightFor falls back to
// the ledger after a ring eviction.
func TestLedgerSpill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	r := New(Config{Process: "test", Flights: 2, LedgerPath: path})
	defer r.Close()

	failed := r.Begin(0x1, "ten")
	r.Record(failed, Event{Kind: KindFailure, Detail: "boom"})
	r.Complete(failed, 3*time.Millisecond, true, "boom")

	fine := r.Begin(0x2, "ten")
	r.Complete(fine, time.Millisecond, false, "")

	// Push both out of the tiny ring.
	for i := 10; i < 14; i++ {
		r.Begin(obs.TraceID(i), "ten")
	}
	if _, ok := r.flights[0x1]; ok {
		t.Fatal("setup: failed flight still in ring")
	}

	// The failed flight survives in the ledger; the routine one is gone.
	f, ok := r.FlightFor(0x1)
	if !ok {
		t.Fatal("failed flight not recovered from ledger")
	}
	if !strings.HasPrefix(f.Notable, "failed") {
		t.Fatalf("recovered flight notable = %q", f.Notable)
	}
	if len(f.Events) != 2 {
		t.Fatalf("recovered flight has %d events, want failure+complete: %+v", len(f.Events), f.Events)
	}
	if _, ok := r.FlightFor(0x2); ok {
		t.Fatal("routine completion spilled to the ledger")
	}

	// Each JSONL line decodes and carries the process stamp.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec ledgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("malformed ledger line %q: %v", line, err)
		}
		if rec.Process != "test" {
			t.Fatalf("ledger line process %q", rec.Process)
		}
	}
}

// TestMarkNotableSpillsOnce pins the single-spill rule: repeated marks
// append reasons in memory but write one ledger line.
func TestMarkNotableSpillsOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	r := New(Config{Process: "test", LedgerPath: path})
	defer r.Close()
	key := r.Begin(0x7, "ten")
	r.MarkNotable(key, "lease-expired")
	r.MarkNotable(key, "connection lost")
	f, _ := r.FlightFor(key)
	if f.Notable != "lease-expired; connection lost" {
		t.Fatalf("notable = %q", f.Notable)
	}
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 1 {
		t.Fatalf("ledger holds %d lines, want 1", n)
	}
	snap := r.Snapshot()
	if snap.Spilled != 1 {
		t.Fatalf("spilled counter %d, want 1", snap.Spilled)
	}
}

// TestLedgerRotation drives the ledger past its byte cap and checks the
// rename-to-.1 rotation, plus FlightFor's fallback into the rotated file.
func TestLedgerRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	r := New(Config{Process: "test", LedgerPath: path, LedgerMaxBytes: 2048})
	defer r.Close()
	for i := 1; i <= 40; i++ {
		key := r.Begin(obs.TraceID(i), "ten")
		r.Record(key, Event{Kind: KindFailure, Detail: strings.Repeat("e", 64)})
		r.Complete(key, time.Millisecond, true, "overflow driver")
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("ledger did not rotate: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 2048+1024 {
		t.Fatalf("active ledger %d bytes, cap 2048", st.Size())
	}
	// A spill that now lives only in the rotated file is still reachable
	// through a fresh recorder (empty ring) — the FlightFor fallback chain.
	data, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	var rec ledgerRecord
	firstLine := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)[0]
	if err := json.Unmarshal([]byte(firstLine), &rec); err != nil {
		t.Fatalf("rotated ledger line %q: %v", firstLine, err)
	}
	r2 := New(Config{Process: "test", Flights: 2, LedgerPath: path, LedgerMaxBytes: 2048})
	defer r2.Close()
	if _, ok := r2.FlightFor(rec.Flight.Trace); !ok {
		t.Fatalf("spill %v not found via rotated ledger", rec.Flight.Trace)
	}
}

// TestTailDetection pins per-tenant tail notability: after the sample
// floor, a completion far beyond the tenant's mean spills as
// "tail-latency"; normal completions never do.
func TestTailDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	r := New(Config{Process: "test", LedgerPath: path})
	defer r.Close()
	for i := 1; i <= tailMinSamples+4; i++ {
		key := r.Begin(obs.TraceID(i), "ten")
		r.Complete(key, 10*time.Millisecond, false, "")
	}
	slow := r.Begin(0x100, "ten")
	r.Complete(slow, 500*time.Millisecond, false, "")
	f, _ := r.FlightFor(slow)
	if f.Notable != "tail-latency" {
		t.Fatalf("slow completion notable = %q, want tail-latency", f.Notable)
	}
	// A different tenant with no history never marks.
	other := r.Begin(0x101, "fresh")
	r.Complete(other, 500*time.Millisecond, false, "")
	if f, _ := r.FlightFor(0x101); f.Notable != "" {
		t.Fatalf("fresh tenant marked notable: %q", f.Notable)
	}
}

// TestHandlerQueries pins the /debug/flight query surface: ?trace= for a
// single flight (including the ledger fallback) and ?n= tailing.
// getFlight reads one trace's snapshot from base's /debug/flight.
func getFlight(t *testing.T, base string, trace obs.TraceID) Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/flight?trace=" + trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("?trace=%s: %s: %v", trace, resp.Status, err)
	}
	return snap
}

func TestHandlerQueries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	r := New(Config{Process: "test", Flights: 4, LedgerPath: path})
	defer r.Close()
	for i := 1; i <= 6; i++ {
		key := r.Begin(obs.TraceID(i), "ten")
		failed := i == 1
		cause := ""
		if failed {
			cause = "boom"
		}
		r.Complete(key, time.Millisecond, failed, cause)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	// ?trace= finds a resident flight.
	snap := getFlight(t, srv.URL, 5)
	if len(snap.Flights) != 1 || snap.Flights[0].Trace != 5 {
		t.Fatalf("?trace=5 returned %+v", snap.Flights)
	}
	if snap.Process != "test" {
		t.Fatalf("snapshot process %q", snap.Process)
	}

	// ?trace= falls back to the ledger for the evicted failed flight.
	snap = getFlight(t, srv.URL, 1)
	if len(snap.Flights) != 1 || !strings.HasPrefix(snap.Flights[0].Notable, "failed") {
		t.Fatalf("?trace=1 (ledger fallback) returned %+v", snap.Flights)
	}

	// ?n= tails the list, keeping the envelope.
	resp, err := http.Get(srv.URL + "/debug/flight?n=2")
	if err != nil {
		t.Fatal(err)
	}
	var tailed Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&tailed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tailed.Flights) != 2 || tailed.Flights[1].Trace != 6 {
		t.Fatalf("?n=2 returned %+v", tailed.Flights)
	}
	if tailed.Evicted != 2 {
		t.Fatalf("?n=2 envelope evicted=%d, want 2", tailed.Evicted)
	}
}

// TestHandlerRejectsMalformedN: ?n= takes a non-negative decimal integer
// and nothing else, as on every debug endpoint (obs.Tail); a number with
// trailing text or in another base is refused, not read as its prefix.
func TestHandlerRejectsMalformedN(t *testing.T) {
	r := New(Config{Process: "test"})
	for i := 1; i <= 6; i++ {
		r.Complete(r.Begin(obs.TraceID(i), "ten"), time.Millisecond, false, "")
	}
	for _, c := range []struct {
		n       string
		code    int
		flights int
	}{
		{"5", 200, 5},
		{"0", 200, 0},
		{"5abc", 400, 0},
		{"0x10", 400, 0},
		{"-1", 400, 0},
		{"1e3", 400, 0},
		{"", 200, 6},
	} {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?n="+c.n, nil))
		if rec.Code != c.code {
			t.Errorf("?n=%s: code %d, want %d", c.n, rec.Code, c.code)
			continue
		}
		if c.code != 200 {
			continue
		}
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("?n=%s: %v", c.n, err)
		}
		if len(snap.Flights) != c.flights || snap.Process != "test" {
			t.Errorf("?n=%s: %d flights from %q, want %d from \"test\"", c.n, len(snap.Flights), snap.Process, c.flights)
		}
	}
}

// TestConcurrentUse hammers one recorder from many goroutines; run under
// -race this is the data-race gate for the always-on hot path.
func TestConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Process: "test", Flights: 32, LedgerPath: filepath.Join(dir, "l.jsonl")})
	defer r.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := r.Begin(0, "ten")
				r.Record(key, Event{Kind: KindEnqueued, Depth: i})
				r.Record(key, Event{Kind: KindExecute, Dur: time.Microsecond})
				r.Complete(key, time.Millisecond, i%17 == 0, "chaos")
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
				r.FlightFor(0x1)
			}
		}
	}()
	wg.Wait()
	close(done)
}

// TestCompleteWithBatch pins the batched completion path the hot loops
// use: accumulated milestones land in order under one call, keep their
// caller timestamps, zero times are stamped, and the terminal Complete
// event follows the batch. Unknown keys still open a flight on the fly,
// and the caller's slice is never retained.
func TestCompleteWithBatch(t *testing.T) {
	base := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	r := New(Config{Process: "test", Now: func() time.Time { return base.Add(time.Hour) }})
	defer r.Close()

	key := r.Begin(0, "tenant-a")
	batch := []Event{
		{Kind: KindEnqueued, Depth: 3, Pos: 2, Time: base},
		{Kind: KindScheduled, Dur: 5 * time.Millisecond, Time: base.Add(time.Millisecond)},
		{Kind: KindExecute, Dur: 10 * time.Millisecond}, // zero Time: stamped at completion
	}
	r.CompleteWith(key, "tenant-a", batch, time.Time{}, 20*time.Millisecond, false, "")

	f, ok := r.FlightFor(key)
	if !ok {
		t.Fatal("flight not found after CompleteWith")
	}
	kinds := make([]Kind, len(f.Events))
	for i, ev := range f.Events {
		kinds[i] = ev.Kind
	}
	want := []Kind{KindEnqueued, KindScheduled, KindExecute, KindComplete}
	if len(kinds) != len(want) {
		t.Fatalf("got events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	if !f.Events[0].Time.Equal(base) {
		t.Fatalf("batched event lost its caller timestamp: %v", f.Events[0].Time)
	}
	if !f.Events[2].Time.Equal(base.Add(time.Hour)) {
		t.Fatalf("zero-time batched event not stamped with the clock: %v", f.Events[2].Time)
	}
	if f.Events[3].Dur != 20*time.Millisecond {
		t.Fatalf("complete event Dur = %v", f.Events[3].Dur)
	}
	// Mutating the caller's slice after the call must not leak into the
	// recorded flight.
	batch[0].Detail = "mutated"
	if f2, _ := r.FlightFor(key); f2.Events[0].Detail == "mutated" {
		t.Fatal("recorder retained the caller's event slice")
	}

	// A failed batched completion on an unknown key admits a flight and
	// spills it as notable.
	r.CompleteWith(777, "tenant-b", []Event{{Kind: KindFailure, Detail: "boom"}}, time.Time{}, time.Second, true, "boom")
	ff, ok := r.FlightFor(777)
	if !ok {
		t.Fatal("unknown-key CompleteWith left no flight")
	}
	if ff.Notable != "failed: boom" {
		t.Fatalf("Notable = %q, want %q", ff.Notable, "failed: boom")
	}
	if ff.Events[0].Kind != KindFailure || ff.Events[1].Kind != KindComplete {
		t.Fatalf("unknown-key flight events: %+v", ff.Events)
	}
}
