package flash

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlasherSerializesPerBoard pins the core invariant: one active flash
// per board, concurrent flashes across boards.
func TestFlasherSerializesPerBoard(t *testing.T) {
	var active sync.Map // board -> *atomic.Int32
	var maxConcurrent atomic.Int32
	s, err := New(Config{
		Flasher: func(job Job, binary []byte) (time.Duration, error) {
			v, _ := active.LoadOrStore(job.Board, new(atomic.Int32))
			ctr := v.(*atomic.Int32)
			if n := ctr.Add(1); n > 1 {
				t.Errorf("board %s: %d concurrent flashes", job.Board, n)
			}
			maxConcurrent.Add(1)
			time.Sleep(5 * time.Millisecond)
			ctr.Add(-1)
			return 2 * time.Second, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		for _, b := range []string{"board-a", "board-b"} {
			tickets = append(tickets, s.Submit(Request{
				Board: b, Bitstream: fmt.Sprintf("bits-%d", i), Requester: "t",
			}))
		}
	}
	for _, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range s.History("board-a") {
		if j.State != StateDone || j.FlashSeconds != 2 {
			t.Fatalf("unexpected terminal job %+v", j)
		}
	}
	if got := len(s.History("board-a")); got != 4 {
		t.Fatalf("board-a history %d jobs, want 4", got)
	}
}

// TestCoalescing pins the batching semantics: submissions for an open
// (board, bitstream) job attach as followers and share one flash.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	var flashes atomic.Int32
	s, err := New(Config{
		Flasher: func(job Job, binary []byte) (time.Duration, error) {
			flashes.Add(1)
			<-release
			return time.Second, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lead := s.Submit(Request{Board: "b", Bitstream: "bits", Requester: "lead"})
	// Wait for the worker to pick the job up so followers hit the active
	// (not queued) coalescing path too.
	for lead.Job().State != StateFlashing {
		time.Sleep(time.Millisecond)
	}
	f1 := s.Submit(Request{Board: "b", Bitstream: "bits", Requester: "f1"})
	f2 := s.Submit(Request{Board: "b", Bitstream: "bits", Requester: "f2"})
	close(release)
	for _, tk := range []*Ticket{lead, f1, f2} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := flashes.Load(); n != 1 {
		t.Fatalf("%d flashes executed, want 1 (coalesced)", n)
	}
	j := lead.Job()
	if len(j.BatchedRequesters) != 2 {
		t.Fatalf("batched requesters %v, want [f1 f2]", j.BatchedRequesters)
	}
	if f1.Job().ID != j.ID {
		t.Fatal("follower ticket tracks a different job")
	}
}

// TestPriorityWithinBoard pins ordering: higher priority first, FIFO
// within a level.
func TestPriorityWithinBoard(t *testing.T) {
	release := make(chan struct{})
	var order []string
	var mu sync.Mutex
	first := true
	s, err := New(Config{
		Flasher: func(job Job, binary []byte) (time.Duration, error) {
			if first {
				first = false
				<-release // hold the head job so the rest queue up
			}
			mu.Lock()
			order = append(order, job.Bitstream)
			mu.Unlock()
			return 0, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	head := s.Submit(Request{Board: "b", Bitstream: "head"})
	for head.Job().State != StateFlashing {
		time.Sleep(time.Millisecond)
	}
	low1 := s.Submit(Request{Board: "b", Bitstream: "low-1", Priority: 0})
	hi := s.Submit(Request{Board: "b", Bitstream: "hi", Priority: 5})
	low2 := s.Submit(Request{Board: "b", Bitstream: "low-2", Priority: 0})
	close(release)
	for _, tk := range []*Ticket{head, low1, hi, low2} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"head", "hi", "low-1", "low-2"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestHistorySurvivesRestart is the acceptance criterion: the JSONL
// ledger reloads on a fresh service, and job IDs continue past it.
func TestHistorySurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.jsonl")
	s, err := New(Config{
		HistoryPath: path,
		Flasher: func(job Job, binary []byte) (time.Duration, error) {
			if job.Bitstream == "bad" {
				return 0, fmt.Errorf("boom")
			}
			return time.Second, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(Request{Board: "b1", Bitstream: "x", Requester: "alice"}).Wait(context.Background())
	s.Submit(Request{Board: "b1", Bitstream: "bad", Requester: "bob"}).Wait(context.Background())
	s.Submit(Request{Board: "b2", Bitstream: "y", Requester: "carol"}).Wait(context.Background())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{HistoryPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	all := s2.History("")
	if len(all) != 3 {
		t.Fatalf("reloaded %d history entries, want 3", len(all))
	}
	if all[0].Requester != "alice" || all[0].State != StateDone || all[0].FlashSeconds != 1 {
		t.Fatalf("first reloaded job %+v", all[0])
	}
	if all[1].State != StateFailed || all[1].Error == "" {
		t.Fatalf("failed job not preserved: %+v", all[1])
	}
	// IDs continue past the reloaded maximum.
	tk := s2.Submit(Request{Board: "b3", Bitstream: "z"})
	if id := tk.Job().ID; id != 4 {
		t.Fatalf("next job ID %d, want 4", id)
	}
}

// TestPlanningMode pins the registry-side flow: Submit opens a window,
// RecordDrain attributes migrations, Complete finalizes and promotes the
// next window.
func TestPlanningMode(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w1 := s.Submit(Request{Board: "b", Bitstream: "first", Requester: "fn-1"})
	if st := w1.Job().State; st != StateFlashing {
		t.Fatalf("first window state %s, want flashing", st)
	}
	w2 := s.Submit(Request{Board: "b", Bitstream: "second", Requester: "fn-2"})
	if st := w2.Job().State; st != StateQueued {
		t.Fatalf("second window state %s, want queued", st)
	}
	s.RecordDrain("b", 3)

	if !s.Complete("b", "first", 2*time.Second, nil) {
		t.Fatal("Complete(first) found no job")
	}
	if err := w1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	j := w1.Job()
	if j.DrainedSessions != 3 || j.FlashSeconds != 2 {
		t.Fatalf("completed job %+v", j)
	}
	// The second window opened on completion of the first.
	if st := w2.Job().State; st != StateFlashing {
		t.Fatalf("second window state %s after first completed", st)
	}
	if s.Complete("b", "nonexistent", 0, nil) {
		t.Fatal("Complete matched a bitstream with no job")
	}
	if !s.Complete("b", "second", time.Second, nil) {
		t.Fatal("Complete(second) found no job")
	}
}

// TestHandler pins the /debug/flash JSON shape.
func TestHandler(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Submit(Request{Board: "b1", Bitstream: "x", Requester: "r"})
	s.Complete("b1", "x", time.Second, nil)
	s.Submit(Request{Board: "b1", Bitstream: "y", Requester: "r2"})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flash", nil))
	var p debugPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Jobs) != 1 || p.Jobs[0].Bitstream != "y" {
		t.Fatalf("live jobs %+v", p.Jobs)
	}
	if p.Queues["b1"] != 1 {
		t.Fatalf("queue depths %+v", p.Queues)
	}
	if len(p.History["b1"]) != 1 || p.History["b1"][0].Bitstream != "x" {
		t.Fatalf("history %+v", p.History)
	}
}
