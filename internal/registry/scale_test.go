package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/flash"
	"blastfunction/internal/metrics"
)

// countingMetrics wraps a MetricsSource and records which devices were
// queried — the probe for Allocate's candidate-pool bound.
type countingMetrics struct {
	mu    sync.Mutex
	inner MetricsSource
	calls map[string]int
}

func (c *countingMetrics) DeviceMetrics(deviceID, node string) (DeviceMetrics, bool) {
	c.mu.Lock()
	c.calls[deviceID]++
	c.mu.Unlock()
	if c.inner == nil {
		return DeviceMetrics{}, false
	}
	return c.inner.DeviceMetrics(deviceID, node)
}

func (c *countingMetrics) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// TestAllocateUsesAcceleratorIndex: with hundreds of boards already
// serving other accelerator families, an allocation for one family must
// only evaluate that family's boards plus the blank ones — not the whole
// cluster.
func TestAllocateUsesAcceleratorIndex(t *testing.T) {
	src := &countingMetrics{calls: map[string]int{}}
	r := mustNew(t, DefaultPolicy(src))

	// 200 boards pre-configured for "other", 5 for "sobel", 3 blank.
	for i := 0; i < 200; i++ {
		r.RegisterDevice(Device{ID: fmt.Sprintf("other-%03d", i), Node: fmt.Sprintf("n%03d", i),
			Accelerator: "other", Bitstream: "bits-other"})
	}
	for i := 0; i < 5; i++ {
		r.RegisterDevice(Device{ID: fmt.Sprintf("sobel-%d", i), Node: fmt.Sprintf("s%d", i),
			Accelerator: "sobel", Bitstream: "spector-sobel"})
	}
	for i := 0; i < 3; i++ {
		r.RegisterDevice(Device{ID: fmt.Sprintf("blank-%d", i), Node: fmt.Sprintf("b%d", i)})
	}
	r.RegisterFunction(Function{Name: "sobel-1",
		Query: DeviceQuery{Accelerator: "sobel"}, Bitstream: "spector-sobel"})

	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := src.total(); got > 8 { // 5 sobel + 3 blank
		t.Fatalf("allocation evaluated %d devices, want <= 8 (the sobel+blank buckets)", got)
	}
	for id := range src.calls {
		if id[:5] == "other" {
			t.Fatalf("allocation touched foreign-family device %s", id)
		}
	}
	if a := alloc.Device.Accelerator; a != "sobel" && a != "" {
		t.Fatalf("allocated %s (accelerator %q)", alloc.Device.ID, a)
	}
}

// TestAllocateIndexFollowsReconfiguration: a blank board claimed by one
// family must leave the blank bucket, and the reconfiguration fallback
// must still find boards outside the primary pool.
func TestAllocateIndexFollowsReconfiguration(t *testing.T) {
	r := mustNew(t, DefaultPolicy(StaticMetrics{}))
	r.RegisterDevice(Device{ID: "d1", Node: "A"})
	r.RegisterFunction(Function{Name: "f-a", Query: DeviceQuery{Accelerator: "alpha"}, Bitstream: "bit-a"})
	r.RegisterFunction(Function{Name: "f-b", Query: DeviceQuery{Accelerator: "beta"}, Bitstream: "bit-b"})

	// f-a claims the blank board.
	if _, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "f-a"}); err != nil {
		t.Fatal(err)
	}
	// The board now serves alpha; another alpha allocation still finds it
	// through the alpha bucket.
	if alloc, err := r.Allocate(AllocRequest{InstanceUID: "u2", InstanceName: "i2", Function: "f-a"}); err != nil {
		t.Fatal(err)
	} else if alloc.NeedsReconfigure {
		t.Fatal("same-family allocation must not reconfigure")
	}
	// Release everything; beta's allocation must reach the board through
	// the reconfiguration fallback (it is in no beta-compatible bucket).
	r.Release("u1")
	r.Release("u2")
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u3", InstanceName: "i3", Function: "f-b"})
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.NeedsReconfigure {
		t.Fatal("cross-family takeover must reconfigure")
	}
	// And the index moved with it: alpha's next allocation has no board.
	if _, err := r.Allocate(AllocRequest{InstanceUID: "u4", InstanceName: "i4", Function: "f-a"}); err == nil {
		t.Fatal("alpha must not find the board reindexed to beta")
	}
}

// TestGathererCachesPerGeneration: within one scrape generation the
// Gatherer must answer repeat lookups from its cache; a new Append
// invalidates it.
func TestGathererCachesPerGeneration(t *testing.T) {
	db := metrics.NewTSDB(time.Minute)
	g := NewGatherer(db)
	base := time.Unix(1000, 0)
	g.Now = func() time.Time { return base.Add(20 * time.Second) }
	lbl := metrics.Labels{"device": "d1", "node": "A"}
	db.Append(base, []metrics.Sample{{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 0}})
	db.Append(base.Add(10*time.Second), []metrics.Sample{{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 5}})

	for i := 0; i < 50; i++ {
		m, ok := g.DeviceMetrics("d1", "A")
		if !ok || m.Utilization != 0.5 {
			t.Fatalf("lookup %d = %+v ok=%v", i, m, ok)
		}
	}
	st := g.Stats()
	if st.Computes != 1 || st.CacheHits != 49 {
		t.Fatalf("stats = %+v, want 1 compute + 49 hits", st)
	}

	// Negative answers are cached too.
	for i := 0; i < 10; i++ {
		if _, ok := g.DeviceMetrics("ghost", "A"); ok {
			t.Fatal("ghost device must have no metrics")
		}
	}
	if st := g.Stats(); st.Computes != 2 {
		t.Fatalf("negative lookups not cached: %+v", st)
	}

	// A new scrape generation recomputes.
	db.Append(base.Add(20*time.Second), []metrics.Sample{{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 15}})
	g.Now = func() time.Time { return base.Add(30 * time.Second) }
	m, ok := g.DeviceMetrics("d1", "A")
	if !ok || m.Utilization != 0.75 { // (15-0)/20s
		t.Fatalf("post-append view = %+v ok=%v", m, ok)
	}
	if st := g.Stats(); st.Computes != 3 {
		t.Fatalf("append did not invalidate the cache: %+v", st)
	}
}

// TestConcurrentAllocateFallbackRace drives the reconfiguration fallback
// against concurrent Allocate calls claiming the same blank boards, with
// a planning-mode flash service attached and each winner immediately
// validating its reconfiguration (the Build call racing later
// allocations). Run under -race, it pins the locking around the eager
// bitstream record, the index moves, and the flash window open/close.
func TestConcurrentAllocateFallbackRace(t *testing.T) {
	fl, err := flash.New(flash.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	r, err := New(AllocPolicy{ReconfigPenalty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r.SetFlash(fl)

	const boards = 3
	for i := 0; i < boards; i++ {
		if err := r.RegisterDevice(Device{ID: fmt.Sprintf("b%d", i), Node: "n0"}); err != nil {
			t.Fatal(err)
		}
	}
	const fams = 6
	for i := 0; i < fams; i++ {
		if err := r.RegisterFunction(Function{
			Name:      fmt.Sprintf("fn-%d", i),
			Query:     DeviceQuery{Accelerator: fmt.Sprintf("acc-%d", i)},
			Bitstream: fmt.Sprintf("bit-%d", i),
		}); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 24
	var wg sync.WaitGroup
	okCh := make(chan string, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			uid := fmt.Sprintf("uid-%d", i)
			name := fmt.Sprintf("inst-%d", i)
			fn := fmt.Sprintf("fn-%d", i%fams)
			alloc, err := r.Allocate(AllocRequest{
				InstanceUID:  uid,
				InstanceName: name,
				Function:     fn,
			})
			if err != nil {
				return // fallback legitimately exhausted (not redistributable)
			}
			// The winner's Build call: closes the board's flash window while
			// other goroutines are still allocating.
			_ = r.ValidateReconfiguration(alloc.Device.ID, name, fmt.Sprintf("bit-%d", i%fams))
			okCh <- uid
		}(i)
	}
	wg.Wait()
	close(okCh)

	placed := 0
	for uid := range okCh {
		if _, ok := r.InstancePlacement(uid); !ok {
			t.Fatalf("successful allocation %s has no placement", uid)
		}
		placed++
	}
	if placed == 0 {
		t.Fatal("no allocation succeeded")
	}
	// Every board flip opened a flash window; validated ones were closed
	// into history. Between live jobs and history at least one window must
	// exist and all must be well-formed.
	jobs := append(fl.Jobs(), fl.History("")...)
	if len(jobs) == 0 {
		t.Fatal("no flash window opened despite successful allocations")
	}
	for _, j := range jobs {
		if j.Board == "" || j.Bitstream == "" {
			t.Fatalf("malformed flash job %+v", j)
		}
	}
}
