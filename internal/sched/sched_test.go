package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pop is a test helper: a non-blocking-expectation Pop that fails the
// test if the queue has nothing schedulable.
func pop(t *testing.T, q Queue) *Item {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	it, ok := q.Pop(ctx)
	if !ok {
		t.Fatal("Pop returned no item")
	}
	return it
}

func mustNew(t *testing.T, d Discipline, cfg Config) Queue {
	t.Helper()
	q, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestParseDiscipline(t *testing.T) {
	for in, want := range map[string]Discipline{"": FIFO, "fifo": FIFO, "drr": DRR} {
		got, err := ParseDiscipline(in)
		if err != nil || got != want {
			t.Errorf("ParseDiscipline(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// A deleted discipline's name is rejected like any unknown one, with
	// an error that lists the remaining choices.
	for _, in := range []string{"lottery", "deadline"} {
		_, err := ParseDiscipline(in)
		if err == nil || !strings.Contains(err.Error(), "[fifo drr]") {
			t.Errorf("ParseDiscipline(%q) error = %v; want one naming [fifo drr]", in, err)
		}
	}
	for _, d := range Disciplines {
		if _, err := New(d, Config{}); err != nil {
			t.Errorf("New(%q): %v", d, err)
		}
	}
}

// weightCases is the -weights grammar: a nil want marks a rejected table.
var weightCases = []struct {
	in   string
	want map[string]int
}{
	{"", nil},
	{"a=1", map[string]int{"a": 1}},
	{"gold=3,free=1", map[string]int{"gold": 3, "free": 1}},
	{"a=1,a=2", map[string]int{"a": 2}},
	{"a=b=2", nil},
	{"a=0", nil},
	{"a=-1", nil},
	{"a=x", nil},
	{"=2", nil},
	{"a", nil},
	{"a=1,", nil},
}

func TestParseWeights(t *testing.T) {
	for _, c := range weightCases {
		got, err := ParseWeights(c.in)
		if c.want == nil && c.in != "" {
			if err == nil {
				t.Errorf("ParseWeights(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || len(got) != len(c.want) {
			t.Errorf("ParseWeights(%q) = %v, %v; want %v", c.in, got, err, c.want)
			continue
		}
		for k, w := range c.want {
			if got[k] != w {
				t.Errorf("ParseWeights(%q)[%q] = %d, want %d", c.in, k, got[k], w)
			}
		}
	}
}

// FuzzParseWeights: no input panics, and an accepted table holds only
// named tenants with weights of at least 1.
func FuzzParseWeights(f *testing.F) {
	for _, c := range weightCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		table, err := ParseWeights(s)
		if err != nil {
			return
		}
		for k, w := range table {
			if k == "" || w < 1 {
				t.Fatalf("ParseWeights(%q) accepted %q=%d", s, k, w)
			}
		}
	})
}

func TestFIFOOrder(t *testing.T) {
	q := mustNew(t, FIFO, Config{})
	defer q.Close()
	for i := 0; i < 100; i++ {
		q.Push(&Item{Session: 1, Tenant: "a", Payload: i})
	}
	for i := 0; i < 100; i++ {
		if got := pop(t, q).Payload.(int); got != i {
			t.Fatalf("pop %d: got payload %d", i, got)
		}
	}
}

func TestFIFORemovePreservesOrder(t *testing.T) {
	q := mustNew(t, FIFO, Config{})
	defer q.Close()
	for i := 0; i < 10; i++ {
		sess := uint64(1 + i%2)
		q.Push(&Item{Session: sess, Tenant: "a", Payload: i})
	}
	removed := q.Remove(2) // the odd payloads
	if len(removed) != 5 {
		t.Fatalf("removed %d items, want 5", len(removed))
	}
	for i, it := range removed {
		if it.Payload.(int) != 2*i+1 {
			t.Fatalf("removed[%d] = %d, want submit order", i, it.Payload)
		}
	}
	for i := 0; i < 10; i += 2 {
		if got := pop(t, q).Payload.(int); got != i {
			t.Fatalf("post-remove pop: got %d, want %d", got, i)
		}
	}
}

// TestDRRWeightedShares pins the weight-proportional service pattern:
// with unit costs, a weight-3 tenant is served three times the items per
// visit of a weight-1 tenant (12 against 4 at the quantum of 4).
func TestDRRWeightedShares(t *testing.T) {
	q := mustNew(t, DRR, Config{
		Weights:         map[string]int{"heavy": 3, "light": 1},
		StarvationGuard: -1, // isolate pure DRR behavior
	})
	defer q.Close()
	for i := 0; i < 30; i++ {
		q.Push(&Item{Session: 1, Tenant: "heavy", Payload: i})
	}
	for i := 0; i < 10; i++ {
		q.Push(&Item{Session: 2, Tenant: "light", Payload: i})
	}
	counts := map[string]int{}
	var order []string
	for i := 0; i < 16; i++ {
		it := pop(t, q)
		counts[it.Tenant]++
		order = append(order, it.Tenant)
	}
	if counts["heavy"] != 12 || counts["light"] != 4 {
		t.Fatalf("16 pops served heavy=%d light=%d (order %v), want 12/4", counts["heavy"], counts["light"], order)
	}
}

// TestDRRCostCharging verifies multi-op tasks are charged by cost: a
// tenant submitting cost-16 tasks gets roughly the same service-units as
// an equal-weight tenant submitting cost-1 tasks, not 16x.
func TestDRRCostCharging(t *testing.T) {
	q := mustNew(t, DRR, Config{StarvationGuard: -1})
	defer q.Close()
	for i := 0; i < 20; i++ {
		q.Push(&Item{Session: 1, Tenant: "bulk", Cost: 16, Payload: i})
	}
	for i := 0; i < 200; i++ {
		q.Push(&Item{Session: 2, Tenant: "lean", Cost: 1, Payload: i})
	}
	units := map[string]int64{}
	// Serve 10 full bulk tasks' worth of rounds.
	for units["bulk"] < 160 {
		it := pop(t, q)
		units[it.Tenant] += it.Cost
	}
	ratio := float64(units["bulk"]) / float64(units["lean"])
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("service units bulk=%d lean=%d (ratio %.2f), want near parity", units["bulk"], units["lean"], ratio)
	}
}

// TestDRRRemoveMidRound reclaims a session while the ring cursor is
// mid-round, including the tenant currently holding the cursor.
func TestDRRRemoveMidRound(t *testing.T) {
	q := mustNew(t, DRR, Config{StarvationGuard: -1})
	defer q.Close()
	tenants := []string{"a", "b", "c"}
	for i, tn := range tenants {
		for j := 0; j < 5; j++ {
			q.Push(&Item{Session: uint64(i + 1), Tenant: tn, Payload: j})
		}
	}
	// Advance the cursor into the round: serve one item ("a" keeps the
	// cursor position or it moved on — either way a real mid-round state).
	first := pop(t, q)
	// Remove the cursor tenant's session and one other.
	gone := map[string]bool{first.Tenant: true}
	var sess uint64
	for i, tn := range tenants {
		if tn == first.Tenant {
			sess = uint64(i + 1)
		}
	}
	removed := q.Remove(sess)
	if len(removed) != 4 {
		t.Fatalf("removed %d items of the cursor tenant, want 4", len(removed))
	}
	// All remaining items must still be served, from the live tenants.
	want := 10 // two tenants x 5
	for i := 0; i < want; i++ {
		it := pop(t, q)
		if gone[it.Tenant] {
			t.Fatalf("served item of removed tenant %s", it.Tenant)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// TestDRRStarvationGuard serves an over-age head out of turn.
func TestDRRStarvationGuard(t *testing.T) {
	now := time.Unix(1000, 0)
	q := mustNew(t, DRR, Config{
		StarvationGuard: time.Second,
		Now:             func() time.Time { return now },
	})
	defer q.Close()
	// "busy" is first in the ring and would win a pure DRR round.
	for i := 0; i < 10; i++ {
		q.Push(&Item{Session: 1, Tenant: "busy", Payload: i})
	}
	// "starved" queued an item two seconds ago (beyond the guard).
	q.Push(&Item{Session: 2, Tenant: "starved", Submitted: now.Add(-2 * time.Second), Payload: 0})
	if it := pop(t, q); it.Tenant != "starved" {
		t.Fatalf("guard did not fire: served %s first", it.Tenant)
	}
	// Guarded service charged the cost: the tenant repays the advance.
	if it := pop(t, q); it.Tenant != "busy" {
		t.Fatalf("after the guarded pop, served %s, want busy", it.Tenant)
	}
}

func TestPopContextCancel(t *testing.T) {
	for _, d := range Disciplines {
		q := mustNew(t, d, Config{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan bool, 1)
		go func() {
			_, ok := q.Pop(ctx)
			done <- ok
		}()
		time.Sleep(10 * time.Millisecond) // let Pop block on the empty queue
		cancel()
		select {
		case ok := <-done:
			if ok {
				t.Fatalf("%s: cancelled Pop returned an item", d)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: cancelled Pop did not return", d)
		}
		q.Close()
	}
}

func TestCloseDrain(t *testing.T) {
	for _, d := range Disciplines {
		q := mustNew(t, d, Config{})
		for i := 0; i < 3; i++ {
			if err := q.Push(&Item{Session: 1, Tenant: "a", Payload: i}); err != nil {
				t.Fatalf("%s: push: %v", d, err)
			}
		}
		q.Close()
		if err := q.Push(&Item{Session: 1, Tenant: "a"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: push after close: %v, want ErrClosed", d, err)
		}
		for i := 0; i < 3; i++ {
			if _, ok := q.Pop(context.Background()); !ok {
				t.Fatalf("%s: closed queue did not drain item %d", d, i)
			}
		}
		if _, ok := q.Pop(context.Background()); ok {
			t.Fatalf("%s: drained closed queue returned an item", d)
		}
	}
}

func TestPushBlocksAtCapacity(t *testing.T) {
	q := mustNew(t, FIFO, Config{Capacity: 2})
	defer q.Close()
	q.Push(&Item{Session: 1, Tenant: "a", Payload: 0})
	q.Push(&Item{Session: 1, Tenant: "a", Payload: 1})
	unblocked := make(chan struct{})
	go func() {
		q.Push(&Item{Session: 1, Tenant: "a", Payload: 2})
		close(unblocked)
	}()
	select {
	case <-unblocked:
		t.Fatal("push beyond capacity did not block")
	case <-time.After(50 * time.Millisecond):
	}
	pop(t, q)
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("push did not unblock after a pop freed capacity")
	}
}

// TestEffectiveWeight pins the resolution order: static table beats the
// item's declared weight beats the default.
func TestEffectiveWeight(t *testing.T) {
	q := mustNew(t, DRR, Config{Weights: map[string]int{"tabled": 7}})
	defer q.Close()
	q.Push(&Item{Session: 1, Tenant: "tabled", Weight: 2})
	q.Push(&Item{Session: 2, Tenant: "declared", Weight: 3})
	q.Push(&Item{Session: 3, Tenant: "bare"})
	got := map[string]int{}
	for _, ts := range q.Stats().Tenants {
		got[ts.Tenant] = ts.Weight
	}
	want := map[string]int{"tabled": 7, "declared": 3, "bare": 1}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("weight of %s = %d, want %d", k, got[k], w)
		}
	}
}

// TestStatsAccounting checks the lifetime and per-tenant counters add up
// after pops and removes.
func TestStatsAccounting(t *testing.T) {
	now := time.Unix(6000, 0)
	q := mustNew(t, FIFO, Config{Now: func() time.Time { return now }})
	defer q.Close()
	for i := 0; i < 6; i++ {
		q.Push(&Item{Session: uint64(1 + i%2), Tenant: []string{"a", "b"}[i%2], Payload: i})
	}
	now = now.Add(30 * time.Millisecond)
	pop(t, q) // one of a's
	q.Remove(2)
	st := q.Stats()
	if st.Pushed != 6 || st.Popped != 1 || st.Removed != 3 || st.Depth != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for _, ts := range st.Tenants {
		switch ts.Tenant {
		case "a":
			if ts.Popped != 1 || ts.Depth != 2 || ts.WaitTotal != 30*time.Millisecond || ts.MaxWait != 30*time.Millisecond {
				t.Fatalf("tenant a stats = %+v", ts)
			}
		case "b":
			if ts.Removed != 3 || ts.Depth != 0 {
				t.Fatalf("tenant b stats = %+v", ts)
			}
		}
	}
}

// TestConcurrentStress hammers every discipline with concurrent pushers,
// poppers and removers — the -race workout for the blocking envelope.
func TestConcurrentStress(t *testing.T) {
	for _, d := range Disciplines {
		t.Run(string(d), func(t *testing.T) {
			q := mustNew(t, d, Config{Capacity: 64})
			const pushers, perPusher = 4, 200
			var popped, removed atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < pushers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perPusher; i++ {
						it := &Item{Session: uint64(p + 1), Tenant: string(rune('a' + p)), Cost: int64(1 + i%4)}
						if err := q.Push(it); err != nil {
							return // closed under us: fine
						}
					}
				}(p)
			}
			var popWG sync.WaitGroup
			for c := 0; c < 2; c++ {
				popWG.Add(1)
				go func() {
					defer popWG.Done()
					for {
						if _, ok := q.Pop(context.Background()); !ok {
							return
						}
						popped.Add(1)
					}
				}()
			}
			// A remover racing the poppers, like the lease sweeper does.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					removed.Add(int64(len(q.Remove(2))))
					time.Sleep(time.Millisecond)
				}
			}()
			wg.Wait()
			q.Close()
			popWG.Wait()
			st := q.Stats()
			if got := popped.Load() + removed.Load(); got != int64(st.Pushed) {
				t.Fatalf("accounting: pushed %d, popped+removed %d", st.Pushed, got)
			}
			if st.Depth != 0 {
				t.Fatalf("drained queue depth = %d", st.Depth)
			}
		})
	}
}

// TestPushPopAllocatesNothing is the manager's steady state under its
// default discipline: the worker blocked in Pop, a connection pushing one
// task at a time. Waking the worker may not cost a channel.
func TestPushPopAllocatesNothing(t *testing.T) {
	q := mustNew(t, FIFO, Config{})
	popped := make(chan struct{})
	go func() {
		for {
			if _, ok := q.Pop(context.Background()); !ok {
				return
			}
			popped <- struct{}{}
		}
	}()
	defer q.Close()
	it := &Item{Session: 1, Tenant: "a"}
	if n := testing.AllocsPerRun(100, func() {
		if err := q.Push(it); err != nil {
			t.Fatal(err)
		}
		<-popped
	}); n != 0 {
		t.Errorf("Push+Pop allocates %.0f times, want 0", n)
	}
}
