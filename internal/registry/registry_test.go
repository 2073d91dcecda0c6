package registry

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/cluster"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
)

// threeDevices registers the testbed topology: one board per node, all
// Intel/FPGA-SDK, initially unconfigured.
func threeDevices(r *Registry) {
	for _, n := range []string{"A", "B", "C"} {
		r.RegisterDevice(Device{
			ID:          "fpga-" + n,
			Node:        n,
			Vendor:      "Intel(R) Corporation",
			Platform:    "Intel(R) FPGA SDK for OpenCL(TM)",
			ManagerAddr: "10.0.0." + n + ":5000",
		})
	}
}

func sobelFn() Function {
	return Function{
		Name:      "sobel-1",
		Query:     DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: "sobel"},
		Bitstream: "spector-sobel",
	}
}

func TestAllocatePrefersLowUtilization(t *testing.T) {
	src := StaticMetrics{
		"fpga-A": {Utilization: 0.80},
		"fpga-B": {Utilization: 0.10},
		"fpga-C": {Utilization: 0.40},
	}
	r := mustNew(t, DefaultPolicy(src))
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "sobel-1-a", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Device.ID != "fpga-B" || alloc.Node != "B" {
		t.Fatalf("allocated %s on %s, want fpga-B on B", alloc.Device.ID, alloc.Node)
	}
	if alloc.NeedsReconfigure {
		t.Fatal("unconfigured device must not need displacements")
	}
}

func TestAllocateFiltersOverloadedDevices(t *testing.T) {
	src := StaticMetrics{
		"fpga-A": {Utilization: 0.99},
		"fpga-B": {Utilization: 0.97},
		"fpga-C": {Utilization: 0.50},
	}
	r := mustNew(t, DefaultPolicy(src))
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Device.ID != "fpga-C" {
		t.Fatalf("allocated %s, want fpga-C (others filtered)", alloc.Device.ID)
	}
}

func TestAllocateCompatibilityTiebreak(t *testing.T) {
	// Utilizations within one 5% bucket: the device already configured
	// with the needed accelerator must win, avoiding a reconfiguration.
	src := StaticMetrics{
		"fpga-A": {Utilization: 0.41},
		"fpga-B": {Utilization: 0.44},
		"fpga-C": {Utilization: 0.48},
	}
	r := mustNew(t, DefaultPolicy(src))
	threeDevices(r)
	r.RegisterDevice(Device{
		ID: "fpga-B", Node: "B",
		Vendor: "Intel(R) Corporation", Platform: "Intel(R) FPGA SDK for OpenCL(TM)",
		Bitstream: "spector-sobel", Accelerator: "sobel",
	})
	r.RegisterDevice(Device{
		ID: "fpga-A", Node: "A",
		Vendor: "Intel(R) Corporation", Platform: "Intel(R) FPGA SDK for OpenCL(TM)",
		Bitstream: "spector-mm", Accelerator: "mm",
	})
	r.RegisterFunction(sobelFn())
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	// fpga-A (0.41) and fpga-B (0.44) share the 0.40 bucket; B is
	// accelerator-compatible and must win despite slightly higher load.
	if alloc.Device.ID != "fpga-B" {
		t.Fatalf("allocated %s, want fpga-B (compatibility tiebreak)", alloc.Device.ID)
	}
}

func TestAllocateVendorFilter(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterDevice(Device{ID: "gpu-X", Node: "A", Vendor: "Other Corp", Platform: "OtherCL"})
	r.RegisterFunction(Function{
		Name:  "f",
		Query: DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: "sobel"},
	})
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Device.Vendor != "Intel(R) Corporation" {
		t.Fatalf("vendor filter violated: %+v", alloc.Device)
	}
}

func TestAllocateDeviceNotFound(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	r.RegisterFunction(sobelFn())
	_, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"})
	if !errors.Is(err, ErrDeviceNotFound) {
		t.Fatalf("err = %v, want ErrDeviceNotFound", err)
	}
	if _, err := r.Allocate(AllocRequest{Function: "ghost"}); err == nil {
		t.Fatal("unregistered function must fail")
	}
}

func TestAllocateNodePinned(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1", Node: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Device.Node != "C" || alloc.Node != "C" {
		t.Fatalf("pinned allocation landed on %s", alloc.Device.Node)
	}
}

func TestAllocateReconfigurationWithRedistribution(t *testing.T) {
	// All devices run sobel; an MM function arrives. The chosen device's
	// sobel instances must be redistributable to the other sobel boards,
	// and the allocation must flag reconfiguration + displacements.
	r := mustNew(t, AllocPolicy{})
	for _, n := range []string{"A", "B", "C"} {
		r.RegisterDevice(Device{
			ID: "fpga-" + n, Node: n,
			Vendor: "Intel(R) Corporation", Platform: "SDK",
			Bitstream: "spector-sobel", Accelerator: "sobel",
		})
	}
	r.RegisterFunction(sobelFn())
	r.RegisterFunction(Function{
		Name:      "mm-1",
		Query:     DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: "mm"},
		Bitstream: "spector-mm",
	})
	// Two sobel instances land on A (the deterministic first pick).
	a1, err := r.Allocate(AllocRequest{InstanceUID: "s1", InstanceName: "sobel-1-1", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Allocate(AllocRequest{InstanceUID: "s2", InstanceName: "sobel-1-2", Function: "sobel-1"}); err != nil {
		t.Fatal(err)
	}
	if a1.Device.ID != "fpga-A" {
		t.Fatalf("setup: sobel landed on %s", a1.Device.ID)
	}
	// MM allocation: every device is incompatible; fpga-A is first in
	// order and its two sobel instances can move to B or C.
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "m1", InstanceName: "mm-1-1", Function: "mm-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.NeedsReconfigure {
		t.Fatal("MM on a sobel board must need reconfiguration")
	}
	if len(alloc.Displaced) != 2 {
		t.Fatalf("displaced = %v, want the 2 sobel instances", alloc.Displaced)
	}
	// The device record now expects the MM bitstream.
	for _, d := range r.Devices() {
		if d.ID == alloc.Device.ID && d.Bitstream != "spector-mm" {
			t.Fatalf("device bitstream = %q", d.Bitstream)
		}
	}
}

func TestAllocateSkipsNonRedistributableDevice(t *testing.T) {
	// Only one sobel board exists: its sobel instance cannot move, so an
	// MM request must NOT displace it; with a second (idle, unconfigured)
	// board the MM lands there instead.
	r := mustNew(t, AllocPolicy{})
	r.RegisterDevice(Device{
		ID: "fpga-A", Node: "A", Vendor: "V", Platform: "P",
		Bitstream: "spector-sobel", Accelerator: "sobel",
	})
	r.RegisterDevice(Device{ID: "fpga-B", Node: "B", Vendor: "V", Platform: "P"})
	r.RegisterFunction(Function{Name: "sobel-1", Query: DeviceQuery{Accelerator: "sobel"}, Bitstream: "spector-sobel"})
	r.RegisterFunction(Function{Name: "mm-1", Query: DeviceQuery{Accelerator: "mm"}, Bitstream: "spector-mm"})
	if _, err := r.Allocate(AllocRequest{InstanceUID: "s1", InstanceName: "s1", Function: "sobel-1"}); err != nil {
		t.Fatal(err)
	}
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "m1", InstanceName: "m1", Function: "mm-1"})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Device.ID != "fpga-B" {
		t.Fatalf("MM landed on %s, want the idle fpga-B", alloc.Device.ID)
	}
	if len(alloc.Displaced) != 0 {
		t.Fatalf("displaced = %v, want none", alloc.Displaced)
	}
}

func TestValidateReconfiguration(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "sobel-1-x", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	dev := alloc.Device.ID
	// The allocated client may program its bitstream.
	if err := r.ValidateReconfiguration(dev, "sobel-1-x", "spector-sobel"); err != nil {
		t.Fatalf("legitimate reconfiguration rejected: %v", err)
	}
	// A second program of the same bitstream is fine.
	if err := r.ValidateReconfiguration(dev, "sobel-1-x", "spector-sobel"); err != nil {
		t.Fatal(err)
	}
	// A different bitstream from the same client is rejected (device now
	// expects sobel).
	if err := r.ValidateReconfiguration(dev, "sobel-1-x", "spector-mm"); err == nil {
		t.Fatal("conflicting bitstream must be rejected")
	}
	// Unknown clients and unallocated devices are rejected.
	if err := r.ValidateReconfiguration(dev, "stranger", "spector-sobel"); err == nil {
		t.Fatal("unknown client must be rejected")
	}
	other := "fpga-A"
	if other == dev {
		other = "fpga-B"
	}
	if err := r.ValidateReconfiguration(other, "sobel-1-x", "spector-sobel"); err == nil {
		t.Fatal("client not allocated to the device must be rejected")
	}
}

func TestControllerAllocatesOnInstanceCreation(t *testing.T) {
	cl := cluster.New()
	for _, n := range []string{"A", "B", "C"} {
		cl.AddNode(cluster.Node{Name: n})
	}
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	ctrl := NewController(r, cl)
	ctrl.Log = logx.NewLogf("registry", t.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Run(ctx)

	in, err := cl.CreateInstance(cluster.Instance{Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	var got cluster.Instance
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		got, _ = cl.Get(in.UID)
		if got.Phase == cluster.Running {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got.Phase != cluster.Running {
		t.Fatalf("instance never scheduled: %+v", got)
	}
	if got.Env[EnvManagerAddr] == "" || got.Env[EnvDeviceID] == "" {
		t.Fatalf("env not injected: %v", got.Env)
	}
	if len(got.Volumes) != 1 || got.Volumes[0] != ShmVolume {
		t.Fatalf("volumes = %v", got.Volumes)
	}
	dev, ok := r.InstancePlacement(in.UID)
	if !ok || dev.Node != got.Node {
		t.Fatalf("placement %v/%v inconsistent with node %s", dev, ok, got.Node)
	}

	// Deletion releases the allocation.
	cl.DeleteInstance(in.UID)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := r.InstancePlacement(in.UID); !ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("allocation not released after delete")
}

func TestControllerMigratesOnReconfiguration(t *testing.T) {
	cl := cluster.New()
	for _, n := range []string{"A", "B"} {
		cl.AddNode(cluster.Node{Name: n})
	}
	r := mustNew(t, AllocPolicy{})
	r.RegisterDevice(Device{ID: "fpga-A", Node: "A", Vendor: "V", Platform: "P",
		Bitstream: "spector-sobel", Accelerator: "sobel"})
	r.RegisterDevice(Device{ID: "fpga-B", Node: "B", Vendor: "V", Platform: "P",
		Bitstream: "spector-sobel", Accelerator: "sobel"})
	r.RegisterFunction(Function{Name: "sobel-1", Query: DeviceQuery{Accelerator: "sobel"}, Bitstream: "spector-sobel"})
	r.RegisterFunction(Function{Name: "mm-1", Query: DeviceQuery{Accelerator: "mm"}, Bitstream: "spector-mm"})
	ctrl := NewController(r, cl)
	ctrl.Log = logx.NewLogf("registry", t.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Run(ctx)

	sob, _ := cl.CreateInstance(cluster.Instance{Function: "sobel-1"})
	waitRunning(t, cl, sob.UID)
	sobDev, _ := r.InstancePlacement(sob.UID)

	mm, _ := cl.CreateInstance(cluster.Instance{Function: "mm-1"})
	waitRunning(t, cl, mm.UID)
	mmDev, _ := r.InstancePlacement(mm.UID)

	if mmDev.ID == sobDev.ID {
		// The MM displaced the sobel instance: the original sobel
		// instance must be gone, replaced by a new one elsewhere.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if _, ok := cl.Get(sob.UID); !ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if _, ok := cl.Get(sob.UID); ok {
			t.Fatal("displaced instance was not migrated")
		}
		replacements := cl.Instances("sobel-1")
		if len(replacements) != 1 {
			t.Fatalf("sobel replacements = %d", len(replacements))
		}
		repl := replacements[0]
		waitRunning(t, cl, repl.UID)
		rd, ok := r.InstancePlacement(repl.UID)
		if !ok || rd.ID == mmDev.ID {
			t.Fatalf("replacement placed on %v (MM device %s)", rd, mmDev.ID)
		}
	}
	// In both outcomes: the two functions end on different devices.
	finalSobel := cl.Instances("sobel-1")[0]
	waitRunning(t, cl, finalSobel.UID)
	sd, _ := r.InstancePlacement(finalSobel.UID)
	md, _ := r.InstancePlacement(mm.UID)
	if sd.ID == md.ID {
		t.Fatalf("sobel and mm share device %s after migration", sd.ID)
	}
}

func waitRunning(t *testing.T, cl *cluster.Cluster, uid string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if in, ok := cl.Get(uid); ok && in.Phase == cluster.Running {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("instance %s never reached Running", uid)
}

func TestGathererComputesUtilization(t *testing.T) {
	db := metrics.NewTSDB(time.Minute)
	g := NewGatherer(db)
	base := time.Unix(9000, 0)
	g.Now = func() time.Time { return base.Add(20 * time.Second) }
	lbl := metrics.Labels{"device": "fpga-A", "node": "A"}
	// 8 modelled-busy seconds over 20 wall seconds at scale 1 -> 40%.
	db.Append(base, []metrics.Sample{
		{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 2},
		{Name: "bf_device_time_scale", Labels: lbl, Value: 1},
		{Name: "bf_connected_clients", Labels: lbl, Value: 3},
	})
	db.Append(base.Add(20*time.Second), []metrics.Sample{
		{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 10},
		{Name: "bf_device_time_scale", Labels: lbl, Value: 1},
		{Name: "bf_connected_clients", Labels: lbl, Value: 5},
		{Name: "bf_queue_depth", Labels: lbl, Value: 2},
	})
	m, ok := g.DeviceMetrics("fpga-A", "A")
	if !ok {
		t.Fatal("no metrics")
	}
	if m.Utilization < 0.39 || m.Utilization > 0.41 {
		t.Fatalf("utilization = %v, want 0.4", m.Utilization)
	}
	if m.Connected != 5 || m.QueueDepth != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if _, ok := g.DeviceMetrics("ghost", "X"); ok {
		t.Fatal("unknown device must report no data")
	}
}

func TestRegistryHTTPAPI(t *testing.T) {
	r := mustNew(t, AllocPolicy{Metrics: StaticMetrics{"fpga-A": {Utilization: 0.5}}})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	// Register a device and a function over HTTP.
	devBody := `{"ID":"fpga-A","Node":"A","Vendor":"Intel","ManagerAddr":"x:1"}`
	resp, err := http.Post(srv.URL+"/devices", "application/json", strings.NewReader(devBody))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /devices: %v %v", resp.Status, err)
	}
	fnBody := `{"Name":"sobel-1","Query":{"Accelerator":"sobel"},"Bitstream":"spector-sobel"}`
	resp, err = http.Post(srv.URL+"/functions", "application/json", strings.NewReader(fnBody))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /functions: %v %v", resp.Status, err)
	}

	// Read them back.
	resp, err = http.Get(srv.URL + "/devices")
	if err != nil {
		t.Fatal(err)
	}
	var devs []apiDevice
	if err := json.NewDecoder(resp.Body).Decode(&devs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(devs) != 1 || devs[0].ID != "fpga-A" {
		t.Fatalf("devices = %+v", devs)
	}
	if devs[0].Metrics == nil || devs[0].Metrics.Utilization != 0.5 {
		t.Fatalf("metrics not attached: %+v", devs[0].Metrics)
	}
	resp, _ = http.Get(srv.URL + "/functions")
	var fns []Function
	json.NewDecoder(resp.Body).Decode(&fns)
	resp.Body.Close()
	if len(fns) != 1 || fns[0].Name != "sobel-1" {
		t.Fatalf("functions = %+v", fns)
	}
	// Bad payloads are rejected.
	resp, _ = http.Post(srv.URL+"/devices", "application/json", strings.NewReader("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad device POST = %v", resp.Status)
	}
	resp, _ = http.Get(srv.URL + "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v", resp.Status)
	}
}

func TestUnhealthyDeviceSkippedByAllocation(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	if err := r.SetDeviceHealth("fpga-A", errors.New("scrape timeout")); err != nil {
		t.Fatal(err)
	}
	if r.DeviceHealthy("fpga-A") {
		t.Fatal("fpga-A must report unhealthy")
	}
	// fpga-A would win the ID tiebreak; while unhealthy, allocation must
	// land elsewhere.
	alloc, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Device.ID == "fpga-A" {
		t.Fatal("allocation chose the unhealthy device")
	}
	// Recovery restores eligibility.
	if err := r.SetDeviceHealth("fpga-A", nil); err != nil {
		t.Fatal(err)
	}
	if !r.DeviceHealthy("fpga-A") {
		t.Fatal("fpga-A must be healthy again")
	}
	if err := r.SetDeviceHealth("ghost", nil); err == nil {
		t.Fatal("unknown device must fail")
	}
}

func TestAllUnhealthyMeansDeviceNotFound(t *testing.T) {
	r := mustNew(t, AllocPolicy{})
	threeDevices(r)
	r.RegisterFunction(sobelFn())
	for _, id := range []string{"fpga-A", "fpga-B", "fpga-C"} {
		r.SetDeviceHealth(id, errors.New("down"))
	}
	if _, err := r.Allocate(AllocRequest{InstanceUID: "u1", InstanceName: "i1", Function: "sobel-1"}); !errors.Is(err, ErrDeviceNotFound) {
		t.Fatalf("err = %v, want ErrDeviceNotFound", err)
	}
}
