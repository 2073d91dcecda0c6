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
	"blastfunction/internal/flightrec"
	"blastfunction/internal/loadgen"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/registry"
	"blastfunction/internal/stack"
)

// fullStack is cmd/gateway's control plane over a testbed, sampling every
// library task, with a Registry whose Gatherer reads every manager's
// scraped /metrics.
type fullStack struct {
	tb      *Testbed
	cp      *stack.ControlPlane
	gwSrv   *httptest.Server
	scraper *metrics.Scraper
	db      *metrics.TSDB
}

func newStack(t *testing.T) *fullStack {
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
	cp := stack.NewControlPlane(stack.ControlPlaneConfig{Registry: reg, Log: logx.NewLogf("gateway", t.Logf), TraceSample: 1})
	for _, n := range tb.Nodes {
		metricsSrv := httptest.NewServer(n.Handler())
		t.Cleanup(metricsSrv.Close)
		url := metricsSrv.URL + "/metrics"
		if err := cp.AddManager(n.Name, "fpga-"+n.Name, n.Addr, url); err != nil {
			t.Fatal(err)
		}
		scraper.AddTarget("fpga-"+n.Name, url)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go scraper.Run(ctx)
	// Close closes the instances' endpoints, and with them their
	// libraries and shared-memory segments.
	cp.Start()
	t.Cleanup(cp.Close)
	gwSrv := httptest.NewServer(cp.Handler())
	t.Cleanup(gwSrv.Close)
	return &fullStack{tb: tb, cp: cp, gwSrv: gwSrv, scraper: scraper, db: db}
}

func (s *fullStack) deploy(t *testing.T, name, usecase string) {
	t.Helper()
	if err := s.cp.Deploy(name, usecase, 0); err != nil {
		t.Fatal(err)
	}
	s.waitReady(t, name)
}

func (s *fullStack) waitReady(t *testing.T, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.cp.Gateway.ReadyReplicas(name) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("function %s never became ready", name)
}

func (s *fullStack) invoke(t *testing.T, path string) apps.Reply {
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
		s.deploy(t, fmt.Sprintf("sobel-%d", i), "sobel")
	}
	// Functions spread across distinct nodes (Algorithm 1 with the
	// registry's own connected counts).
	nodes := map[string]bool{}
	for i := 1; i <= 3; i++ {
		ins := s.cp.Cluster.Instances(fmt.Sprintf("sobel-%d", i))
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
	s.deploy(t, "sobel-1", "sobel")
	if rep := s.invoke(t, "/function/sobel-1?w=16&h=16"); rep.Error != "" {
		t.Fatalf("sobel-1: %s", rep.Error)
	}
	var trace obs.TraceID
	for _, f := range s.cp.Gateway.Flight.Snapshot().Flights {
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
		s.deploy(t, fmt.Sprintf("sobel-%d", i), "sobel")
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
	s.deploy(t, "mm-1", "mm")

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
			ready += s.cp.Gateway.ReadyReplicas(fmt.Sprintf("sobel-%d", i))
		}
		if ready == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mmIns := s.cp.Cluster.Instances("mm-1")
	if len(mmIns) != 1 {
		t.Fatalf("mm instances = %d", len(mmIns))
	}
	mmNode := mmIns[0].Node
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("sobel-%d", i)
		ins := s.cp.Cluster.Instances(name)
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
