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
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/obs"
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
		schedFlag    = flag.String("sched", "fifo", "central-queue discipline: fifo, drr or deadline")
		weights      = flag.String("weights", "", "per-tenant drr weights as name=w,name=w (overrides Hello-declared weights)")
		guard        = flag.Duration("starvation-guard", 0, "drr starvation guard: max queue wait before a tenant is served out of turn (0 = default 2s, negative disables)")
		traceRing    = flag.Int("trace-ring", 0, "distributed-tracing span ring size served at /debug/spans (0 = default 4096)")
		logLevel     = flag.String("log-level", "info", "minimum level mirrored to stderr (debug|info|warn|error)")
		logRing      = flag.Int("log-ring", 4096, "events kept in the /debug/logs ring")
		bufCache     = flag.Int64("buffer-cache-bytes", 0, "content-addressed buffer cache capacity (0 = default 256 MiB, negative disables)")
		memoize      = flag.Bool("memoize", false, "memoize idempotent kernel results keyed by bitstream/kernel/argument content")
		memoCache    = flag.Int64("memo-cache-bytes", 0, "memoized-result cache capacity (0 = default 64 MiB)")
		flashHist    = flag.String("flash-history", "", "append-only JSONL file persisting the bitstream flash history across restarts")
		flashKeep    = flag.Int("flash-history-limit", 0, "flash history entries kept per board (0 = default 64)")
		flightRing   = flag.Int("flight-ring", 0, "flight-recorder ring size served at /debug/flight (0 = default 1024)")
		flightLedger = flag.String("flight-ledger", "", "durable JSONL spill file for notable flights (failures, tail outliers)")
	)
	flag.Parse()

	sinkLevel, err := logx.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("devicemanager: -log-level: %v", err)
	}
	rootLog := logx.New(logx.Config{
		Component: "manager",
		RingSize:  *logRing,
		Sink:      logx.TextSink(os.Stderr),
		SinkLevel: sinkLevel,
	})

	weightTable, err := parseWeights(*weights)
	if err != nil {
		log.Fatalf("devicemanager: -weights: %v", err)
	}
	if _, err := sched.ParseDiscipline(*schedFlag); err != nil {
		log.Fatalf("devicemanager: -sched: %v", err)
	}

	cost := model.WorkerNode()
	if *master {
		cost = model.MasterNode()
	}
	cfg := fpga.DE5aNet(cost)
	cfg.TimeScale = *timescale
	board := fpga.NewBoard(cfg, accel.Catalog())
	mgr := manager.New(manager.Config{
		Node:              *node,
		DeviceID:          *device,
		LeaseDuration:     *lease,
		Scheduler:         *schedFlag,
		TenantWeights:     weightTable,
		StarvationGuard:   *guard,
		TraceRing:         *traceRing,
		Log:               rootLog,
		BufferCacheBytes:  *bufCache,
		MemoizeKernels:    *memoize,
		MemoCacheBytes:    *memoCache,
		FlashHistoryPath:  *flashHist,
		FlashHistoryLimit: *flashKeep,
		FlightRing:        *flightRing,
		FlightLedgerPath:  *flightLedger,
	}, board)
	defer mgr.Close()

	// Runtime health rides the manager's own /metrics: the registry
	// scrapes it into the TSDB where GoroutineLeak/HeapGrowth watch it.
	runtimeCol := obs.NewRuntimeCollector(mgr.Metrics(),
		metrics.Labels{"component": "manager", "device": *device, "node": *node})
	ctx, cancelCol := context.WithCancel(context.Background())
	defer cancelCol()
	go runtimeCol.Run(ctx, 5*time.Second)

	srv := rpc.NewServer(mgr)
	srv.Log = rootLog.Named("rpc")
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("devicemanager: listen: %v", err)
	}
	defer srv.Close()
	rootLog.Info("serving RPC", "device", *device, "node", *node, "addr", addr)

	mux := http.NewServeMux()
	mux.Handle("/metrics", mgr.MetricsHandler())
	mux.Handle("/debug/tasks", mgr.TraceHandler())
	mux.Handle("/debug/spans", mgr.SpanHandler())
	mux.Handle("/debug/sched", mgr.SchedStatsHandler())
	mux.Handle("/debug/cache", mgr.CacheStatsHandler())
	mux.Handle("/debug/flash", mgr.Flash().Handler())
	mux.Handle("/debug/flight", mgr.FlightHandler())
	mux.Handle("/debug/logs", rootLog.Handler())
	obs.RegisterPprof(mux)
	metricsSrv := &http.Server{Addr: *metricsAt, Handler: mux}
	go func() {
		if err := metricsSrv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("devicemanager: metrics server: %v", err)
		}
	}()
	rootLog.Info("metrics endpoint up", "url", "http://"+*metricsAt+"/metrics")

	if *register != "" {
		if err := selfRegister(*register, *device, *node, addr, "http://"+*metricsAt+"/metrics", board); err != nil {
			log.Fatalf("devicemanager: registration: %v", err)
		}
		rootLog.Info("registered with registry", "registry", *register)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	rootLog.Info("shutting down")
	metricsSrv.Close()
}

// parseWeights parses the -weights table: "tenant=w,tenant=w" with
// positive integer weights.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	table := make(map[string]int)
	for _, entry := range strings.Split(s, ",") {
		kv := strings.SplitN(entry, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("malformed entry %q (want name=weight)", entry)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("weight %q of %q: want a positive integer", kv[1], kv[0])
		}
		table[kv[0]] = w
	}
	return table, nil
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
