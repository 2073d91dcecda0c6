package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blastfunction/internal/simcluster"
)

var update = flag.Bool("update", false, "rewrite testdata/studies.golden from the current output")

// TestStudiesGolden renders Tables II-IV (per-function and aggregate
// layouts) and the space-sharing study, and compares the text byte for
// byte with testdata/studies.golden: a change to the simulator, the cost
// models or the registry that moves any paper figure shows up here.
func TestStudiesGolden(t *testing.T) {
	var out bytes.Buffer
	for _, uc := range []simcluster.UseCase{simcluster.UseSobel, simcluster.UseMM, simcluster.UseAlexNet} {
		study, err := RunStudy(uc)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(study.RenderPerFunction())
		out.WriteString("\n")
		out.WriteString(study.RenderAggregate())
		out.WriteString("\n")
	}
	space, err := RunSpaceSharingStudy(simcluster.MediumLoad)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(space.Render())

	path := filepath.Join("testdata", "studies.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, out.Bytes(), want)
	}
}
