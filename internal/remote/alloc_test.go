//go:build !race

// Allocation counts mean nothing under -race: its sync.Pool drops a random
// share of Puts, so pooled buffers miss.

package remote

import "testing"

// The library-to-manager cost of a 3-op shm task, both sides of the wire
// and the flight recorders on both, in allocations.
func TestShmTaskAllocationBudget(t *testing.T) {
	r := newRig(t)
	c, _ := dialCounted(t, r, TransportShm)
	lt := newLoopbackTask(t, c, 4<<10)
	src, dst := make([]byte, 4<<10), make([]byte, 4<<10)
	task := func() {
		lt.enqueue(t, src, dst)
		if err := lt.q.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ { // grow the scratch, fill the flight rings
		task()
	}
	const budget = 13 // 35 before command-queue frames waited for the flush
	n := testing.AllocsPerRun(500, task)
	t.Logf("%.0f allocations per task", n)
	if n > budget {
		t.Fatalf("a 3-op shm task allocates %.0f times, budget %d", n, budget)
	}
}
