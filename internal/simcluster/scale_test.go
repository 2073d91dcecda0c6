package simcluster

import (
	"testing"
	"time"

	"blastfunction/internal/gateway"
)

// TestScaleExperiment runs the cluster-scale front-door DES at the
// acceptance floor (100 boards, 500 tenants, past saturation) and checks
// the headline claims: admission+least-inflight beats the bare
// round-robin baseline on p99, rejections only happen with admission on,
// and the placement pass's metric queries are bounded by the board count
// (one Gatherer compute per device per scrape generation, not one per
// candidate per allocation).
func TestScaleExperiment(t *testing.T) {
	base := ScaleConfig{
		Boards:  100,
		Tenants: 500,
		Warmup:  time.Second,
		Measure: 3 * time.Second,
	}

	baseline, err := RunScale(base)
	if err != nil {
		t.Fatal(err)
	}
	treated := base
	treated.Admission = true
	treated.Router = "least-inflight"
	treatment, err := RunScale(treated)
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("baseline:  p50=%.2fms p99=%.2fms rejected=%.1f%% completed=%d",
		baseline.P50Ms, baseline.P99Ms, 100*baseline.RejectionRate, baseline.Completed)
	t.Logf("treatment: p50=%.2fms p99=%.2fms rejected=%.1f%% completed=%d",
		treatment.P50Ms, treatment.P99Ms, 100*treatment.RejectionRate, treatment.Completed)

	if baseline.Rejected != 0 {
		t.Fatalf("baseline rejected %d requests without admission control", baseline.Rejected)
	}
	if treatment.Rejected == 0 {
		t.Fatal("admission past saturation must reject something")
	}
	if treatment.RejectionRate > 0.5 {
		t.Fatalf("rejection rate %.2f implausibly high for a 0.9-capacity budget", treatment.RejectionRate)
	}
	if treatment.P99Ms >= baseline.P99Ms {
		t.Fatalf("admission+least-inflight p99 %.2fms did not beat baseline %.2fms",
			treatment.P99Ms, baseline.P99Ms)
	}
	if treatment.P99Ms*2 > baseline.P99Ms {
		t.Fatalf("p99 improvement under 2x (%.2fms vs %.2fms) — queues should be unbounded at 1.05 load",
			treatment.P99Ms, baseline.P99Ms)
	}

	for _, r := range []*ScaleResult{baseline, treatment} {
		if r.Allocations != base.Tenants*2 {
			t.Fatalf("allocations = %d, want %d", r.Allocations, base.Tenants*2)
		}
		// All placements happen within one scrape generation: one compute
		// per board, everything else served from the Gatherer cache.
		if r.GathererComputes > uint64(base.Boards) {
			t.Fatalf("gatherer computed %d device views, want <= %d (one per board)",
				r.GathererComputes, base.Boards)
		}
		if r.GathererCacheHits == 0 {
			t.Fatal("placement pass never hit the gatherer cache")
		}
		if r.Completed == 0 {
			t.Fatal("no completed requests measured")
		}
	}

	// Determinism: the same config reproduces the same percentiles.
	again, err := RunScale(treated)
	if err != nil {
		t.Fatal(err)
	}
	if again.P99Ms != treatment.P99Ms || again.Completed != treatment.Completed {
		t.Fatalf("experiment not deterministic: %+v vs %+v", again, treatment)
	}
}

// TestScaleRunsEveryRouter drives a small cluster through each policy the
// gateway can select, with and without admission, and rejects a name the
// gateway does not know with the gateway's own error.
func TestScaleRunsEveryRouter(t *testing.T) {
	small := ScaleConfig{Boards: 4, Tenants: 8, Warmup: 100 * time.Millisecond, Measure: time.Second}
	for _, name := range gateway.RouterNames {
		for _, admission := range []bool{false, true} {
			cfg := small
			cfg.Router, cfg.Admission = name, admission
			res, err := RunScale(cfg)
			if err != nil {
				t.Fatalf("%s (admission %v): %v", name, admission, err)
			}
			if res.Router != name || res.Completed == 0 || (res.Rejected > 0) != admission {
				t.Fatalf("%s (admission %v): router %q, %d completed, %d rejected",
					name, admission, res.Router, res.Completed, res.Rejected)
			}
		}
	}
	_, want := gateway.NewRouter("bogus")
	if _, err := RunScale(ScaleConfig{Boards: 4, Tenants: 8, Router: "bogus"}); err == nil || err.Error() != want.Error() {
		t.Fatalf("unknown router: err = %v, want %v", err, want)
	}
}
