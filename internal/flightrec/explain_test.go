package flightrec

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/obs"
)

// TestExplainPartialSources pins when a postmortem calls its timeline
// partial: a process whose flight dropped milestones past the cap, and a
// process without the trace's flight whose ring has evicted flights. A
// process that evicted nothing never held the flight (a manager the task
// did not run on), and one that serves no /debug/flight is no source of
// flights at all: neither is a warning.
func TestExplainPartialSources(t *testing.T) {
	const trace = obs.TraceID(0xabc)
	serve := func(r *Recorder) string {
		mux := http.NewServeMux()
		if r != nil {
			mux.Handle("/debug/flight", r.Handler())
		}
		mux.HandleFunc("/debug/logs", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("[]")) })
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv.URL
	}

	// The client: the trace's flight, with milestones past the cap.
	client := New(Config{Process: "gateway"})
	client.Begin(trace, "ten")
	for i := 0; i < eventsPerFlight+3; i++ {
		client.Record(trace, Event{Kind: KindRetry, Detail: string(rune('a' + i%26))})
	}
	client.Complete(trace, time.Millisecond, false, "")
	// The manager that ran the task, whose 2-flight ring evicted it.
	ran := New(Config{Process: "manager/ran", Flights: 2})
	ran.Complete(ran.Begin(trace, "ten"), time.Millisecond, false, "")
	for i := 0; i < 2; i++ {
		ran.Complete(ran.Begin(0, "other"), time.Millisecond, false, "")
	}
	// A manager the task never reached, and a process without flights.
	idle := New(Config{Process: "manager/idle"})

	pm, err := (&Explainer{Bases: []string{serve(client), serve(ran), serve(idle), serve(nil)}}).Explain(trace)
	if err != nil {
		t.Fatal(err)
	}
	partial := map[string]string{}
	for _, src := range pm.Sources {
		if src.Partial != "" {
			partial[src.Process] = src.Partial
		}
	}
	if len(partial) != 2 || !strings.HasPrefix(partial["gateway"], "dropped 4 milestones") ||
		!strings.HasPrefix(partial["manager/ran"], "holds no flight for the trace and has evicted") {
		t.Fatalf("partial sources %q, want the gateway's dropped milestones and manager/ran's missing flight", partial)
	}
	var buf bytes.Buffer
	pm.Render(&buf)
	if n := strings.Count(buf.String(), "timeline partial"); n != 2 {
		t.Fatalf("report carries %d partial warnings, want 2:\n%s", n, buf.String())
	}
}
