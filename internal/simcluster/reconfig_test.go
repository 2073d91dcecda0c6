package simcluster

import (
	"errors"
	"testing"

	"blastfunction/internal/registry"
)

// TestReconfigStormExperiment runs the churn DES at the default scale and
// checks that flash windows are no worse than Algorithm 1 alone on tail
// latency and on total reconfiguration time, and that every window is
// read back from the flash service's jobs.
func TestReconfigStormExperiment(t *testing.T) {
	naive, err := RunReconfigStorm(ReconfigConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := RunReconfigStorm(ReconfigConfig{Batched: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("naive:   p50=%.2fms p99=%.2fms reconfigs=%d (%.0fs) util=%.2f",
		naive.P50Ms, naive.P99Ms, naive.Reconfigs, naive.ReconfigSeconds, naive.MeanUtil)
	t.Logf("batched: p50=%.2fms p99=%.2fms reconfigs=%d (%.0fs) riding=%.1f/window util=%.2f",
		batched.P50Ms, batched.P99Ms, batched.Reconfigs, batched.ReconfigSeconds,
		batched.TenantsPerWindow, batched.MeanUtil)

	if batched.P99Ms > naive.P99Ms {
		t.Fatalf("batched p99 %.2fms worse than naive %.2fms", batched.P99Ms, naive.P99Ms)
	}
	if batched.ReconfigSeconds > naive.ReconfigSeconds {
		t.Fatalf("batched reconfig time %.0fs worse than naive %.0fs",
			batched.ReconfigSeconds, naive.ReconfigSeconds)
	}
	if batched.Reconfigs < batched.Boards {
		t.Fatalf("batched arm flashed %d times — all %d cold boards must be programmed",
			batched.Reconfigs, batched.Boards)
	}
	if batched.TenantsPerWindow < 1 || naive.TenantsPerWindow != 0 {
		t.Fatalf("tenants per window = %.1f batched, %.1f naive — want >= 1 from the flash jobs, 0 without them",
			batched.TenantsPerWindow, naive.TenantsPerWindow)
	}
	// Both arms see the same arrival stream; only placement differs.
	if naive.Arrivals != batched.Arrivals {
		t.Fatalf("arrival streams diverged: %d vs %d", naive.Arrivals, batched.Arrivals)
	}
	if naive.Completed == 0 || batched.Completed == 0 {
		t.Fatal("no completed requests measured")
	}

	// Determinism: the same config reproduces the same outcome.
	again, err := RunReconfigStorm(ReconfigConfig{Batched: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.P99Ms != batched.P99Ms || again.Reconfigs != batched.Reconfigs {
		t.Fatalf("experiment not deterministic: %+v vs %+v", again, batched)
	}

	// More families than boards: Algorithm 1 finds no board it may
	// reprogram, and the run fails with its error.
	if _, err := RunReconfigStorm(ReconfigConfig{Boards: 4, Accels: 8}); !errors.Is(err, registry.ErrDeviceNotFound) {
		t.Fatalf("Accels > Boards: err = %v, want ErrDeviceNotFound", err)
	}
}
