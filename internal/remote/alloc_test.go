//go:build !race

// Allocation counts mean nothing under -race: its sync.Pool drops a random
// share of Puts, so pooled buffers miss.

package remote

import "testing"

// taskAllocs counts the allocations of one 3-op task (write, kernel, read
// of size bytes, then Finish) on the given transport, both sides of the
// wire and the flight recorders on both.
func taskAllocs(t *testing.T, transport TransportMode, size int) float64 {
	t.Helper()
	r := newRig(t)
	c, _ := dialCounted(t, r, transport)
	lt := newLoopbackTask(t, c, size)
	src, dst := make([]byte, size), make([]byte, size)
	task := func() {
		lt.enqueue(t, src, dst)
		if err := lt.q.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ { // grow the scratch, fill the flight rings
		task()
	}
	return testing.AllocsPerRun(500, task)
}

// What a task keeps allocating: the three events the caller holds, and
// the completion channel of the one Finish blocks on.
const taskAllocBudget = 4

func TestShmTaskAllocationBudget(t *testing.T) {
	n := taskAllocs(t, TransportShm, 4<<10)
	t.Logf("%.0f allocations per task", n)
	if n > taskAllocBudget {
		t.Fatalf("a 3-op shm task allocates %.0f times, budget %d", n, taskAllocBudget)
	}
}

// The inline path of bfbench's bulk_remote workload: the payloads ride in
// the frames, through the wire buffer pool.
func TestInlineTaskAllocationBudget(t *testing.T) {
	for _, size := range []int{4 << 10, 1 << 20} {
		n := taskAllocs(t, TransportGRPC, size)
		t.Logf("%d bytes: %.0f allocations per task", size, n)
		if n > taskAllocBudget {
			t.Fatalf("a 3-op inline task of %d bytes allocates %.0f times, budget %d", size, n, taskAllocBudget)
		}
	}
}
