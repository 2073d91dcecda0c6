package blastfunction

// Full-stack integration test: testbed boards + Device Managers over TCP,
// metrics exported and scraped, the cluster orchestrator, the Accelerators
// Registry with its controller, the serverless gateway, HTTP load, and a
// live reconfiguration with instance migration. This is the paper's whole
// Figure 1 running in one test.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/apps"
	"blastfunction/internal/cluster"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/gateway"
	"blastfunction/internal/loadgen"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
)

// stack wires every component of the system over a testbed.
type stack struct {
	tb      *Testbed
	cl      *cluster.Cluster
	reg     *registry.Registry
	gw      *gateway.Gateway
	tracer  *obs.Tracer
	gwSrv   *httptest.Server
	scraper *metrics.Scraper
	db      *metrics.TSDB
	cancel  context.CancelFunc
}

func newStack(t *testing.T) *stack {
	t.Helper()
	tb, err := NewTestbed(
		NodeConfig{Name: "A", Master: true},
		NodeConfig{Name: "B"},
		NodeConfig{Name: "C"},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })

	db := metrics.NewTSDB(time.Minute)
	scraper := metrics.NewScraper(db, 50*time.Millisecond)
	gatherer := registry.NewGatherer(db)
	gatherer.Window = 2 * time.Second
	reg, err := registry.New(registry.DefaultPolicy(gatherer))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New()

	for _, n := range tb.Nodes {
		metricsSrv := httptest.NewServer(n.Manager.MetricsHandler())
		t.Cleanup(metricsSrv.Close)
		if err := cl.AddNode(cluster.Node{Name: n.Name}); err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterDevice(registry.Device{
			ID:          "fpga-" + n.Name,
			Node:        n.Name,
			Vendor:      "Intel(R) Corporation",
			Platform:    "Intel(R) FPGA SDK for OpenCL(TM)",
			ManagerAddr: n.Addr,
			MetricsURL:  metricsSrv.URL,
		}); err != nil {
			t.Fatal(err)
		}
		scraper.AddTarget("fpga-"+n.Name, metricsSrv.URL)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go scraper.Run(ctx)
	ctrl := registry.NewController(reg, cl)
	ctrl.Log = logx.NewLogf("registry", t.Logf)
	go ctrl.Run(ctx)
	gw := gateway.New(cl)
	gw.Log = logx.NewLogf("gateway", t.Logf)
	// As in cmd/gateway: one flight recorder for the process, shared by
	// the front door and every Remote Library it dials, and one tracer
	// the libraries sample with.
	gw.Flight = flightrec.New(flightrec.Config{Process: "gateway"})
	t.Cleanup(gw.Flight.Close)
	// Run closes the instances' endpoints, and with them their libraries
	// and shared-memory segments, once ctx ends: the test waits for it.
	ran := make(chan struct{})
	go func() {
		gw.Run(ctx)
		close(ran)
	}()
	t.Cleanup(func() {
		cancel()
		<-ran
	})
	gwSrv := httptest.NewServer(gw.Handler())
	t.Cleanup(gwSrv.Close)

	return &stack{tb: tb, cl: cl, reg: reg, gw: gw, tracer: obs.New(1), gwSrv: gwSrv, scraper: scraper, db: db, cancel: cancel}
}

// dial connects an instance's Remote Library to its allocated manager,
// recording into the gateway's recorder and sampling every task.
func (s *stack) dial(in cluster.Instance) (*remote.Client, error) {
	addr := in.Env[registry.EnvManagerAddr]
	if addr == "" {
		return nil, fmt.Errorf("instance %s not allocated", in.Name)
	}
	return remote.Dial(remote.Config{
		ClientName: in.Name, Managers: []string{addr}, Transport: remote.TransportAuto,
		Tracer: s.tracer, Flight: s.gw.Flight,
	})
}

// sobelFactory builds a small-image Sobel endpoint over the allocated
// manager.
func (s *stack) sobelFactory(in cluster.Instance) (gateway.Endpoint, error) {
	client, err := s.dial(in)
	if err != nil {
		return nil, err
	}
	app, err := apps.NewSobel(client, 0, 64, 64)
	if err != nil {
		client.Close()
		return nil, err
	}
	return gateway.HandlerEndpoint{Handler: apps.SobelHandler(app, 64, 64), CloseFunc: client.Close}, nil
}

func (s *stack) mmFactory(in cluster.Instance) (gateway.Endpoint, error) {
	client, err := s.dial(in)
	if err != nil {
		return nil, err
	}
	app, err := apps.NewMM(client, 0, 64)
	if err != nil {
		client.Close()
		return nil, err
	}
	return gateway.HandlerEndpoint{Handler: apps.MMHandler(app, 32), CloseFunc: client.Close}, nil
}

func (s *stack) deploySobel(t *testing.T, name string) {
	t.Helper()
	if err := s.reg.RegisterFunction(registry.Function{
		Name:      name,
		Query:     registry.DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: "sobel"},
		Bitstream: accel.SobelBitstreamID,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.gw.Deploy(name, 1, s.sobelFactory); err != nil {
		t.Fatal(err)
	}
	s.waitReady(t, name)
}

func (s *stack) waitReady(t *testing.T, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.gw.ReadyReplicas(name) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("function %s never became ready", name)
}

func (s *stack) invoke(t *testing.T, path string) apps.Reply {
	t.Helper()
	resp, err := s.gwSrv.Client().Get(s.gwSrv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep apps.Reply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFullStackServesAcceleratedFunctions(t *testing.T) {
	s := newStack(t)
	for i := 1; i <= 3; i++ {
		s.deploySobel(t, fmt.Sprintf("sobel-%d", i))
	}
	// Functions spread across distinct nodes (Algorithm 1 with the
	// registry's own connected counts).
	nodes := map[string]bool{}
	for i := 1; i <= 3; i++ {
		ins := s.cl.Instances(fmt.Sprintf("sobel-%d", i))
		if len(ins) != 1 {
			t.Fatalf("sobel-%d instances = %d", i, len(ins))
		}
		nodes[ins[0].Node] = true
	}
	if len(nodes) != 3 {
		t.Fatalf("functions on %d nodes, want 3: %v", len(nodes), nodes)
	}

	// Drive one function with the load generator through the gateway.
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:         s.gwSrv.URL + "/function/sobel-1?w=32&h=32",
		Connections: 1,
		RatePerSec:  50,
		Duration:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Errors > 0 {
		t.Fatalf("load result: %+v", res)
	}

	// The scraped metrics reach the gatherer: at least one device shows
	// busy counters after the load.
	s.scraper.ScrapeOnce()
	var sawBusy bool
	for _, n := range s.tb.Nodes {
		lbl := metrics.Labels{"device": "fpga-" + n.Name, "node": n.Name}
		if v, ok := s.db.Latest("bf_device_busy_seconds_total", lbl); ok && v > 0 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Fatal("no busy metrics reached the TSDB")
	}
}

// The gateway's /debug/flight serves the task flights of the Remote
// Libraries it dials beside its front door's: for a sampled request, the
// library's wire-send upload and its client-observed completion.
func TestFullStackGatewayServesLibraryFlights(t *testing.T) {
	s := newStack(t)
	s.deploySobel(t, "sobel-1")
	if rep := s.invoke(t, "/function/sobel-1?w=16&h=16"); rep.Error != "" {
		t.Fatalf("sobel-1: %s", rep.Error)
	}
	var trace obs.TraceID
	for _, f := range s.gw.Flight.Snapshot().Flights {
		if !f.Synthetic {
			trace = f.Trace
		}
	}
	if trace == 0 {
		t.Fatal("the request's task left no sampled flight")
	}
	resp, err := s.gwSrv.Client().Get(s.gwSrv.URL + "/debug/flight?trace=" + trace.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap flightrec.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Process != "gateway" || len(snap.Flights) != 1 {
		t.Fatalf("/debug/flight?trace=%s: process %q, %d flights, want the gateway's one", trace, snap.Process, len(snap.Flights))
	}
	var upload, complete bool
	for _, ev := range snap.Flights[0].Events {
		switch ev.Kind {
		case flightrec.KindUpload:
			upload = upload || ev.Detail == "wire-send"
		case flightrec.KindComplete:
			complete = ev.Dur > 0 && ev.Detail == ""
		}
	}
	if !upload || !complete {
		t.Fatalf("library flight lacks its wire-send upload (%v) or its completion (%v): %+v", upload, complete, snap.Flights[0].Events)
	}
}

func TestFullStackReconfigurationMigratesInstances(t *testing.T) {
	s := newStack(t)
	for i := 1; i <= 3; i++ {
		s.deploySobel(t, fmt.Sprintf("sobel-%d", i))
	}
	// Exercise each function once so the boards are really configured.
	for i := 1; i <= 3; i++ {
		if rep := s.invoke(t, fmt.Sprintf("/function/sobel-%d?w=16&h=16", i)); rep.Error != "" {
			t.Fatalf("sobel-%d: %s", i, rep.Error)
		}
	}

	// An MM function arrives: every board serves sobel, so Algorithm 1
	// must displace one board's sobel instance (migrating it to another
	// sobel board via create-before-delete) and hand the board to MM.
	if err := s.reg.RegisterFunction(registry.Function{
		Name:      "mm-1",
		Query:     registry.DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: "mm"},
		Bitstream: accel.MMBitstreamID,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.gw.Deploy("mm-1", 1, s.mmFactory); err != nil {
		t.Fatal(err)
	}
	s.waitReady(t, "mm-1")

	// MM serves requests (its Build reconfigured the board through the
	// Registry-gated path).
	if rep := s.invoke(t, "/function/mm-1?n=16"); rep.Error != "" {
		t.Fatalf("mm-1: %s", rep.Error)
	}

	// Every sobel function still has exactly one Running instance and
	// still serves; the migrated one landed on a different board.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for i := 1; i <= 3; i++ {
			ready += s.gw.ReadyReplicas(fmt.Sprintf("sobel-%d", i))
		}
		if ready == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mmIns := s.cl.Instances("mm-1")
	if len(mmIns) != 1 {
		t.Fatalf("mm instances = %d", len(mmIns))
	}
	mmNode := mmIns[0].Node
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("sobel-%d", i)
		ins := s.cl.Instances(name)
		if len(ins) != 1 {
			t.Fatalf("%s has %d instances after migration", name, len(ins))
		}
		if ins[0].Node == mmNode {
			t.Fatalf("%s still shares node %s with mm-1 after migration", name, mmNode)
		}
		if rep := s.invoke(t, fmt.Sprintf("/function/%s?w=16&h=16", name)); rep.Error != "" {
			t.Fatalf("%s after migration: %s", name, rep.Error)
		}
	}

	// The converted board really runs the MM bitstream now.
	for _, n := range s.tb.Nodes {
		if n.Name == mmNode {
			if got := n.Board.ConfiguredID(); got != accel.MMBitstreamID {
				t.Fatalf("board %s configured with %q", n.Name, got)
			}
		}
	}
}
