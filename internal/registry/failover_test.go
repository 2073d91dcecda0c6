package registry

import (
	"context"
	"errors"
	"testing"
	"time"

	"blastfunction/internal/cluster"
	"blastfunction/internal/logx"
)

func mustNew(t *testing.T, policy AllocPolicy) *Registry {
	t.Helper()
	r, err := New(policy)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRejectsUnknownMetricNames(t *testing.T) {
	if _, err := New(AllocPolicy{Order: []Criterion{{Metric: "utilisation"}}}); err == nil {
		t.Fatal("misspelled criterion metric accepted")
	}
	if _, err := New(AllocPolicy{Filters: []Filter{{Metric: "queue", Max: 10}}}); err == nil {
		t.Fatal("misspelled filter metric accepted")
	}
	if _, err := New(DefaultPolicy(nil)); err != nil {
		t.Fatalf("default policy rejected: %v", err)
	}
}

// TestReleaseKeepsNameTakenOverByReplacement covers create-before-delete:
// when a replacement instance claims the name before the old UID is
// released, releasing the old UID must not evict the replacement's entry.
func TestReleaseKeepsNameTakenOverByReplacement(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	if _, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"}); err != nil {
		t.Fatal(err)
	}
	alloc2, err := r.Allocate(AllocRequest{InstanceUID: "u2", InstanceName: "i1", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	r.Release("u1")
	if got := r.byName["i1"]; got != "u2" {
		t.Fatalf("byName[%q] = %q, want the replacement u2", "i1", got)
	}
	if err := r.ValidateReconfiguration(alloc2.Device.ID, "i1", "spector-sobel"); err != nil {
		t.Fatalf("replacement fails validation after old UID released: %v", err)
	}
}

// TestReRegisterResetsHealth documents re-registration semantics: a device
// announcing itself again is a fresh incarnation and must be allocatable
// immediately, not carry its predecessor's unhealthy verdict until the
// next scrape.
func TestReRegisterResetsHealth(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	r.RegisterDevice(Device{ID: "fpga-A", Node: "A", Vendor: "Intel(R) Corporation"})
	r.RegisterFunction(sobelFn())
	if err := r.SetDeviceHealth("fpga-A", errors.New("manager crashed")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"}); err == nil {
		t.Fatal("unhealthy-only cluster still allocated")
	}

	// The manager restarts and self-registers.
	r.RegisterDevice(Device{ID: "fpga-A", Node: "A", Vendor: "Intel(R) Corporation"})
	if !r.DeviceHealthy("fpga-A") {
		t.Fatal("re-registered device still unhealthy")
	}
	if got := r.UnhealthyPastGrace(0); len(got) != 0 {
		t.Fatalf("UnhealthyPastGrace = %v after re-registration", got)
	}
	if _, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"}); err != nil {
		t.Fatalf("re-registered device not allocatable: %v", err)
	}
}

func TestUnhealthyPastGraceUsesTransitionTime(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	now := time.Unix(1000, 0)
	r.Now = func() time.Time { return now }
	threeDevices(r)
	r.SetDeviceHealth("fpga-A", errors.New("down"))
	if got := r.UnhealthyPastGrace(time.Minute); len(got) != 0 {
		t.Fatalf("device past grace immediately: %v", got)
	}
	// Repeated failed scrapes must not restart the grace clock.
	now = now.Add(40 * time.Second)
	r.SetDeviceHealth("fpga-A", errors.New("still down"))
	now = now.Add(30 * time.Second)
	if got := r.UnhealthyPastGrace(time.Minute); len(got) != 1 || got[0] != "fpga-A" {
		t.Fatalf("UnhealthyPastGrace = %v, want [fpga-A]", got)
	}
	// Recovery clears the clock.
	r.SetDeviceHealth("fpga-A", nil)
	if got := r.UnhealthyPastGrace(time.Minute); len(got) != 0 {
		t.Fatalf("recovered device still past grace: %v", got)
	}
}

// TestSweepMigratesOffDeadBoard drives the full recovery path: a device
// unhealthy past the grace window has its instance re-placed
// create-before-delete through the orchestrator onto a healthy board.
func TestSweepMigratesOffDeadBoard(t *testing.T) {
	cl := cluster.New()
	for _, n := range []string{"A", "B"} {
		cl.AddNode(cluster.Node{Name: n})
	}
	r := mustNew(t, AllocPolicy{})
	now := time.Unix(2000, 0)
	r.Now = func() time.Time { return now }
	r.RegisterDevice(Device{ID: "fpga-A", Node: "A", Vendor: "Intel(R) Corporation",
		ManagerAddr: "10.0.0.1:5000", Bitstream: "spector-sobel", Accelerator: "sobel"})
	r.RegisterDevice(Device{ID: "fpga-B", Node: "B", Vendor: "Intel(R) Corporation",
		ManagerAddr: "10.0.0.2:5000", Bitstream: "spector-sobel", Accelerator: "sobel"})
	r.RegisterFunction(sobelFn())
	ctrl := NewController(r, cl)
	ctrl.Log = logx.NewLogf("registry", t.Logf)
	ctrl.Grace = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Run(ctx)

	// Unpinned: the controller allocates it; fpga-A wins the ID tiebreak
	// between the two equally idle boards.
	in, err := cl.CreateInstance(cluster.Instance{Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	waitPlaced := func(uid, wantDev string) cluster.Instance {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if got, _ := cl.Get(uid); got.Phase == cluster.Running {
				if dev, ok := r.InstancePlacement(uid); ok && (wantDev == "" || dev.ID == wantDev) {
					return got
				}
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("instance %s never placed on %q", uid, wantDev)
		return cluster.Instance{}
	}
	waitPlaced(in.UID, "fpga-A")

	// fpga-A's manager dies; its scrapes fail past the grace window.
	r.SetDeviceHealth("fpga-A", errors.New("connection refused"))
	now = now.Add(2 * time.Minute)
	ctrl.SweepUnhealthy()

	// The replacement lands on the healthy board; the stranded instance is
	// gone (delete happens after the replacement was created).
	deadline := time.Now().Add(2 * time.Second)
	var moved []string
	for time.Now().Before(deadline) {
		moved = r.ConnectedInstances("fpga-B")
		if len(moved) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(moved) != 1 {
		t.Fatalf("fpga-B instances = %v, want the migrated replacement", moved)
	}
	if got := r.ConnectedInstances("fpga-A"); len(got) != 0 {
		t.Fatalf("fpga-A still has instances: %v", got)
	}
	rep := waitPlaced(moved[0], "fpga-B")
	if rep.Env[EnvManagerAddr] != "10.0.0.2:5000" {
		t.Fatalf("replacement env = %v, want fpga-B's manager", rep.Env)
	}
	if _, ok := cl.Get(in.UID); ok {
		t.Fatalf("stranded instance %s still exists", in.UID)
	}
	// The replacement's allocation is fully registered: the Device
	// Manager's reconfiguration gate accepts it under its fresh name.
	if err := r.ValidateReconfiguration("fpga-B", rep.Name, "spector-sobel"); err != nil {
		t.Fatalf("replacement rejected by reconfiguration gate: %v", err)
	}
}
