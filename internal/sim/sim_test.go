package sim

import (
	"strings"
	"testing"
	"time"

	"blastfunction/internal/sched"
)

func newServer(t *testing.T, e *Engine, d sched.Discipline) *Server {
	t.Helper()
	s, err := e.NewServer(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*time.Millisecond, func() { order = append(order, 3) })
	e.After(10*time.Millisecond, func() { order = append(order, 1) })
	e.After(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want advanced to until", e.Now())
	}
}

func TestEngineEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.After(10*time.Millisecond, func() {
		times = append(times, e.Now())
		e.After(5*time.Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run(time.Second)
	if len(times) != 2 || times[0] != 10*time.Millisecond || times[1] != 15*time.Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineRunStopsAtUntil(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(2*time.Second, func() { fired = true })
	e.Run(time.Second)
	if fired {
		t.Fatal("event past the horizon fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v after stopping at the horizon, want 1s", e.Now())
	}
	e.Run(3 * time.Second)
	if !fired {
		t.Fatal("event within horizon did not fire")
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v after draining early, want 3s", e.Now())
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.After(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { at = e.Now() }) // in the past
	})
	e.Run(time.Second)
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamped to now", at)
	}
}

func TestServerFIFOAndBusyTime(t *testing.T) {
	e := NewEngine()
	s := newServer(t, e, sched.FIFO)
	var completions []time.Duration
	var waits []time.Duration
	for i := 0; i < 3; i++ {
		s.Enqueue("a", 1, 10*time.Millisecond, func(wait, service time.Duration) {
			completions = append(completions, e.Now())
			waits = append(waits, wait)
		})
	}
	// The first job went straight into service; two wait.
	if s.QueueLen() != 2 {
		t.Fatalf("queue length = %d, want 2", s.QueueLen())
	}
	e.Run(time.Second)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v", completions)
		}
	}
	if waits[0] != 0 || waits[1] != 10*time.Millisecond || waits[2] != 20*time.Millisecond {
		t.Fatalf("waits = %v", waits)
	}
	if s.BusyTime() != 30*time.Millisecond {
		t.Fatalf("busy = %v", s.BusyTime())
	}
	if s.Served() != 3 {
		t.Fatalf("served = %d", s.Served())
	}
}

// TestServerOrdersByDiscipline checks that the server serves jobs in its
// queue's order: tenant A enqueues three cost-4 jobs, then tenant B one
// cost-1 job. fifo serves B last. Under drr (quantum 4) A's first job
// goes straight into service, its second spends A's round, and B's round
// comes before A's third.
func TestServerOrdersByDiscipline(t *testing.T) {
	for _, c := range []struct {
		d    sched.Discipline
		want string
	}{
		{sched.FIFO, "AAAB"},
		{sched.DRR, "AABA"},
	} {
		e := NewEngine()
		s := newServer(t, e, c.d)
		var order strings.Builder
		enqueue := func(tenant string, cost int64) {
			s.Enqueue(tenant, cost, time.Millisecond, func(_, _ time.Duration) { order.WriteString(tenant) })
		}
		for i := 0; i < 3; i++ {
			enqueue("A", 4)
		}
		enqueue("B", 1)
		e.Run(time.Second)
		if got := order.String(); got != c.want {
			t.Errorf("%s: order = %s, want %s", c.d, got, c.want)
		}
	}
}

func TestServerInterleavedArrivals(t *testing.T) {
	e := NewEngine()
	s := newServer(t, e, sched.FIFO)
	var log []string
	e.At(0, func() {
		s.Enqueue("a", 1, 20*time.Millisecond, func(w, _ time.Duration) { log = append(log, "a") })
	})
	e.At(5*time.Millisecond, func() {
		s.Enqueue("b", 1, 10*time.Millisecond, func(w, _ time.Duration) {
			log = append(log, "b")
			if w != 15*time.Millisecond {
				t.Errorf("b waited %v, want 15ms", w)
			}
		})
	})
	e.At(50*time.Millisecond, func() {
		s.Enqueue("c", 1, time.Millisecond, func(w, _ time.Duration) {
			log = append(log, "c")
			if w != 0 {
				t.Errorf("c waited %v on idle server", w)
			}
		})
	})
	e.Run(time.Second)
	if len(log) != 3 || log[0] != "a" || log[1] != "b" || log[2] != "c" {
		t.Fatalf("log = %v", log)
	}
	if !almostEqual(s.BusyTime(), 31*time.Millisecond) {
		t.Fatalf("busy = %v", s.BusyTime())
	}
}

func TestServerUtilizationUnderLoad(t *testing.T) {
	// Open arrivals at 50/s with 10ms service: utilization converges to
	// ~50%.
	e := NewEngine()
	s := newServer(t, e, sched.FIFO)
	interval := 20 * time.Millisecond
	var arrive func()
	n := 0
	arrive = func() {
		if n >= 500 {
			return
		}
		n++
		s.Enqueue("a", 1, 10*time.Millisecond, nil)
		e.After(interval, arrive)
	}
	e.At(0, arrive)
	e.Run(20 * time.Second)
	util := float64(s.BusyTime()) / float64(10*time.Second)
	if util < 0.49 || util > 0.51 {
		t.Fatalf("utilization = %.3f, want ~0.5", util)
	}
}

func almostEqual(a, b time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < time.Microsecond
}
