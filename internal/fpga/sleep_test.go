package fpga

import (
	"slices"
	"testing"
	"time"

	"blastfunction/internal/model"
)

// TestHoldIsPrecise: at TimeScale 1 a Hold keeps the board for its
// modelled time and not a timer tick longer. Every hold takes at least
// the modelled time; the median overshoots it by at most 400 µs (a
// time.Sleep of 300 µs takes about 1.1 ms on Linux, where runtime timers
// fire at millisecond granularity). A deadline already passed returns
// at once.
func TestHoldIsPrecise(t *testing.T) {
	const holds, d, slack = 50, 300 * time.Microsecond, 400 * time.Microsecond
	cfg := DE5aNet(model.WorkerNode())
	cfg.TimeScale = 1
	b := NewBoard(cfg, testCatalog())
	took := make([]time.Duration, holds)
	for i := range took {
		start := time.Now()
		b.Hold(d)
		took[i] = time.Since(start)
		if took[i] < d {
			t.Errorf("hold %d took %v, under its modelled %v", i, took[i], d)
		}
	}
	slices.Sort(took)
	median := took[holds/2]
	t.Logf("Hold(%v): median %v (min %v, max %v)", d, median, took[0], took[holds-1])
	if median > d+slack {
		t.Fatalf("median hold %v, want at most %v + %v", median, d, slack)
	}

	// A deadline already passed returns at once.
	for _, deadline := range []time.Time{{}, time.Now(), time.Now().Add(-time.Second)} {
		start := time.Now()
		SleepUntil(deadline)
		if got := time.Since(start); got > 50*time.Millisecond {
			t.Fatalf("SleepUntil(%v) took %v, want an immediate return", deadline, got)
		}
	}
}
