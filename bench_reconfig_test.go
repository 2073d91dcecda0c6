package blastfunction

// Reconfiguration-storm trajectory: serverless churn across eight
// accelerator families on eight boards, placed by the real Registry,
// Algorithm 1 alone vs Algorithm 1 with the lifecycle service's flash
// windows. `make bench-reconfig`
// runs this and writes BENCH_reconfig.json at the repo root so the
// numbers accumulate across revisions.

import (
	"encoding/json"
	"os"
	"testing"

	"blastfunction/internal/simcluster"
)

// reconfigReport is the BENCH_reconfig.json schema.
type reconfigReport struct {
	GeneratedBy string `json:"generated_by"`

	Naive   *simcluster.ReconfigResult `json:"naive_no_flash_service"`
	Batched *simcluster.ReconfigResult `json:"batched_flash_windows"`

	// Headlines: tail-latency and total-reconfiguration-time ratios,
	// naive over batched.
	P99ImprovementX      float64 `json:"p99_improvement_x"`
	ReconfigReductionX   float64 `json:"reconfig_seconds_reduction_x"`
	TenantsPerFlashBatch float64 `json:"tenants_per_flash_window"`
}

// TestBenchReconfigArtifact runs the reconfiguration-storm DES and
// records BENCH_reconfig.json. Gated behind BF_BENCH_RECONFIG so
// `go test ./...` stays fast.
func TestBenchReconfigArtifact(t *testing.T) {
	if os.Getenv("BF_BENCH_RECONFIG") == "" {
		t.Skip("set BF_BENCH_RECONFIG=1 (or run `make bench-reconfig`) to record the artifact")
	}

	naive, err := simcluster.RunReconfigStorm(simcluster.ReconfigConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := simcluster.RunReconfigStorm(simcluster.ReconfigConfig{Batched: true})
	if err != nil {
		t.Fatal(err)
	}

	report := reconfigReport{
		GeneratedBy:          "make bench-reconfig",
		Naive:                naive,
		Batched:              batched,
		TenantsPerFlashBatch: batched.TenantsPerWindow,
	}
	if batched.P99Ms > 0 {
		report.P99ImprovementX = naive.P99Ms / batched.P99Ms
	}
	if batched.ReconfigSeconds > 0 {
		report.ReconfigReductionX = naive.ReconfigSeconds / batched.ReconfigSeconds
	}

	t.Logf("naive:   p50=%.2fms p99=%.2fms reconfigs=%d (%.0fs)",
		naive.P50Ms, naive.P99Ms, naive.Reconfigs, naive.ReconfigSeconds)
	t.Logf("batched: p50=%.2fms p99=%.2fms reconfigs=%d (%.0fs, %.1f tenants/window)",
		batched.P50Ms, batched.P99Ms, batched.Reconfigs,
		batched.ReconfigSeconds, batched.TenantsPerWindow)
	t.Logf("p99 improvement: %.1fx; reconfig time reduction: %.1fx",
		report.P99ImprovementX, report.ReconfigReductionX)

	// Quality bars: flash windows are no worse than Algorithm 1 alone on
	// the p99 tail and on the total reconfiguration seconds. The ratios
	// are recorded as measured; there is no margin to clear, because
	// Algorithm 1 already keeps every family on a board that carries it.
	if batched.P99Ms > naive.P99Ms {
		t.Fatalf("batched p99 %.2fms worse than naive %.2fms", batched.P99Ms, naive.P99Ms)
	}
	if batched.ReconfigSeconds > naive.ReconfigSeconds {
		t.Fatalf("batched reconfig time %.0fs worse than naive %.0fs",
			batched.ReconfigSeconds, naive.ReconfigSeconds)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_reconfig.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_reconfig.json")
}
