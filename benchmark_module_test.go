package blastfunction

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleVets type-checks and vets the nested benchmark
// module (bfbench). It is a module of its own, so `go test ./...` from
// the root never compiles it: without this test an internal API change
// that breaks the harness fails only `make test-benchmark`.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the nested benchmark module")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
