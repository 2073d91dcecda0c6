package stack

import (
	"os"
	"strings"
	"testing"

	"blastfunction/internal/cluster"
	"blastfunction/internal/manager"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
)

// An instance's node binding (BF_NODE) turns the Remote Library's
// co-location check on: against a manager that reports another node the
// instance negotiates inline RPC and creates no shared-memory segment;
// against its own node it maps one.
func TestFactoryNegotiatesByInstanceNode(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Manager: manager.Config{Node: "B", DeviceID: "fpga-B"},
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	for _, tc := range []struct {
		node string
		shm  bool
	}{{"C", false}, {"B", true}} {
		dir := t.TempDir()
		lib := remote.Config{Transport: remote.TransportAuto, ShmDir: dir, ShmBytes: 1 << 20}
		ep, err := factory(useCases["mm"].handler, lib)(cluster.Instance{
			Name: "mm-1-on-" + tc.node,
			Env:  map[string]string{registry.EnvManagerAddr: n.Addr, registry.EnvNode: tc.node},
		})
		if err != nil {
			t.Fatal(err)
		}
		segs, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(segs) > 0; got != tc.shm {
			t.Errorf("instance on node %s, manager on node B: %d shm segments, want shm %v", tc.node, len(segs), tc.shm)
		}
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Deploy refuses a use case it has no app for before registering
// anything: no Registry function, so no allocation can flash a board to
// a bitstream named after it.
func TestDeployRejectsUnknownUseCase(t *testing.T) {
	reg, err := registry.New(registry.DefaultPolicy(nil))
	if err != nil {
		t.Fatal(err)
	}
	cp := NewControlPlane(ControlPlaneConfig{Registry: reg})
	if err := cp.AddManager("A", "fpga-A", "127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	cp.Start()
	defer cp.Close()

	err = cp.Deploy("x-1", "foo", 0)
	if err == nil || !strings.Contains(err.Error(), "sobel|mm|cnn") {
		t.Fatalf("Deploy(x-1, foo) = %v, want an error naming sobel|mm|cnn", err)
	}
	if fns := reg.Functions(); len(fns) != 0 {
		t.Fatalf("registered %+v for an unknown use case", fns)
	}
	for _, d := range reg.Devices() {
		if d.Bitstream == "foo" {
			t.Fatalf("device %s records bitstream %q", d.ID, d.Bitstream)
		}
	}
}
