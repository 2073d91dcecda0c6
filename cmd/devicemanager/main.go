// Command devicemanager serves one simulated FPGA board as a BlastFunction
// Device Manager: the RPC service on -listen, Prometheus-style metrics on
// -metrics, optional self-registration with an Accelerators Registry.
//
// Example:
//
//	devicemanager -node B -device fpga-B -listen :5100 -metrics :5101 \
//	    -register http://registry:8080 -timescale 0.01
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/opsplane"
	"blastfunction/internal/rpc"
	"blastfunction/internal/sched"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:5100", "RPC listen address")
		metricsAt    = flag.String("metrics", "127.0.0.1:5101", "metrics HTTP listen address")
		node         = flag.String("node", "local", "node name (shared-memory co-location check)")
		device       = flag.String("device", "fpga0", "device identifier")
		master       = flag.Bool("master", false, "use the master-node cost model (PCIe Gen2, slower host)")
		timescale    = flag.Float64("timescale", 0.01, "wall seconds per modelled second (0 disables sleeping)")
		register     = flag.String("register", "", "registry base URL for self-registration (optional)")
		lease        = flag.Duration("lease", 30*time.Second, "session lease duration; silent clients are reclaimed after this (0 disables)")
		schedFlag    = flag.String("sched", "fifo", fmt.Sprintf("central-queue discipline, one of %v", sched.Disciplines))
		weights      = flag.String("weights", "", "per-tenant drr weights as name=w,name=w (overrides Hello-declared weights)")
		guard        = flag.Duration("starvation-guard", 0, "drr starvation guard: max queue wait before a tenant is served out of turn (0 = default 2s, negative disables)")
		bufCache     = flag.Int64("buffer-cache-bytes", 0, "content-addressed buffer cache capacity (0 = default 256 MiB, negative disables)")
		flashHist    = flag.String("flash-history", "", "append-only JSONL file persisting the bitstream flash history across restarts")
		flightRing   = flag.Int("flight-ring", 0, "flight-recorder ring size served at /debug/flight (0 = default 1024)")
		flightLedger = flag.String("flight-ledger", "", "durable JSONL spill file for notable flights (failures, tail outliers)")
		base         opsplane.Flags
	)
	base.Register(flag.CommandLine)
	flag.Parse()

	p := opsplane.New("devicemanager", "manager", base)
	weightTable, err := sched.ParseWeights(*weights)
	if err != nil {
		p.Fatal(fmt.Errorf("-weights: %w", err))
	}
	if _, err := sched.ParseDiscipline(*schedFlag); err != nil {
		p.Fatal(fmt.Errorf("-sched: %w", err))
	}

	cost := model.WorkerNode()
	if *master {
		cost = model.MasterNode()
	}
	cfg := fpga.DE5aNet(cost)
	cfg.TimeScale = *timescale
	board := fpga.NewBoard(cfg, accel.Catalog())
	mgr := manager.New(manager.Config{
		Node:             *node,
		DeviceID:         *device,
		LeaseDuration:    *lease,
		Scheduler:        *schedFlag,
		TenantWeights:    weightTable,
		StarvationGuard:  *guard,
		Log:              p.Log,
		BufferCacheBytes: *bufCache,
		FlashHistoryPath: *flashHist,
		FlightRing:       *flightRing,
		FlightLedgerPath: *flightLedger,
	}, board)
	defer mgr.Close()

	// Runtime health rides the manager's own /metrics: the registry
	// scrapes it into the TSDB where GoroutineLeak/HeapGrowth watch it.
	p.CollectRuntime(mgr.Metrics(), metrics.Labels{"component": "manager", "device": *device, "node": *node}, 5*time.Second)

	srv := rpc.NewServer(mgr)
	srv.Log = p.Log.Named("rpc")
	addr, err := srv.Listen(*listen)
	if err != nil {
		p.Fatal(fmt.Errorf("listen: %w", err))
	}
	defer srv.Close()
	p.Log.Info("serving RPC", "device", *device, "node", *node, "addr", addr)

	p.Mux.Handle("/metrics", mgr.MetricsHandler())
	p.Mux.Handle("/debug/tasks", mgr.TraceHandler())
	p.Mux.Handle("/debug/sched", mgr.SchedStatsHandler())
	p.Mux.Handle("/debug/cache", mgr.CacheStatsHandler())
	p.Mux.Handle("/debug/flash", mgr.Flash().Handler())
	p.Mux.Handle("/debug/flight", mgr.FlightHandler())
	p.Listen(*metricsAt)

	if *register != "" {
		if err := selfRegister(*register, *device, *node, addr, "http://"+*metricsAt+"/metrics", board); err != nil {
			p.Fatal(fmt.Errorf("registration: %w", err))
		}
		p.Log.Info("registered with registry", "registry", *register)
	}
	p.Run()
}

func selfRegister(base, device, node, rpcAddr, metricsURL string, board *fpga.Board) error {
	body, err := json.Marshal(map[string]string{
		"ID":          device,
		"Node":        node,
		"Vendor":      board.Config().Vendor,
		"Platform":    "Intel(R) FPGA SDK for OpenCL(TM)",
		"ManagerAddr": rpcAddr,
		"MetricsURL":  metricsURL,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/devices", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registry answered %s", resp.Status)
	}
	return nil
}
