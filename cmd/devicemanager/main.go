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

	"blastfunction/internal/fpga"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/opsplane"
	"blastfunction/internal/registry"
	"blastfunction/internal/sched"
	"blastfunction/internal/stack"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:5100", "RPC listen address")
		metricsAt    = flag.String("metrics", "127.0.0.1:5101", "metrics HTTP listen address")
		nodeName     = flag.String("node", "local", "node name (shared-memory co-location check)")
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
	node, err := stack.NewNode(stack.NodeConfig{
		Manager: manager.Config{
			Node:             *nodeName,
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
		},
		Cost:      cost,
		TimeScale: *timescale,
		Listen:    *listen,
	})
	if err != nil {
		p.Fatal(fmt.Errorf("listen: %w", err))
	}
	defer node.Close()
	p.Log.Info("serving RPC", "device", *device, "node", *nodeName, "addr", node.Addr)

	// Runtime health rides the manager's own /metrics: the registry
	// scrapes it into the TSDB where GoroutineLeak/HeapGrowth watch it.
	p.CollectRuntime(node.Manager.Metrics(), metrics.Labels{"component": "manager", "device": *device, "node": *nodeName}, 5*time.Second)
	p.Mux.Handle("/", node.Handler())
	p.Listen(*metricsAt)

	if *register != "" {
		if err := selfRegister(*register, 10*time.Second, *device, *nodeName, node.Addr, "http://"+*metricsAt+"/metrics", node.Board); err != nil {
			p.Fatal(fmt.Errorf("registration: %w", err))
		}
		p.Log.Info("registered with registry", "registry", *register)
	}
	p.Run()
}

// selfRegister announces the device to the registry at base. It gives up
// after timeout, so a registry that accepts the connection and never
// answers fails start-up instead of hanging it.
func selfRegister(base string, timeout time.Duration, device, node, rpcAddr, metricsURL string, board *fpga.Board) error {
	body, err := json.Marshal(registry.Device{
		ID: device, Node: node, Vendor: board.Config().Vendor, Platform: "Intel(R) FPGA SDK for OpenCL(TM)",
		ManagerAddr: rpcAddr, MetricsURL: metricsURL,
	})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Post(base+"/devices", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registry answered %s", resp.Status)
	}
	return nil
}
