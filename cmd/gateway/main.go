// Command gateway runs the BlastFunction control plane and serverless
// endpoint in one process: the in-memory cluster orchestrator, the
// Accelerators Registry with its controller and Metrics Gatherer, and the
// OpenFaaS-style gateway that materializes functions over remote Device
// Managers.
//
// Example (two managers already running):
//
//	gateway -listen :8081 \
//	    -manager node=B,id=fpga-B,addr=127.0.0.1:5100,metrics=http://127.0.0.1:5101/metrics \
//	    -manager node=C,id=fpga-C,addr=127.0.0.1:5200,metrics=http://127.0.0.1:5201/metrics \
//	    -deploy sobel-1=sobel -deploy sobel-2=sobel -deploy mm-1=mm
//
// Invoke with: curl http://localhost:8081/function/sobel-1
package main

import (
	"context"
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
	"blastfunction/internal/alert"
	"blastfunction/internal/apps"
	"blastfunction/internal/cluster"
	"blastfunction/internal/flash"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/gateway"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
	"blastfunction/internal/slo"
)

// listFlag collects repeated string flags.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// managerSpec is one -manager flag value.
type managerSpec struct {
	node, id, addr, metrics string
}

func parseManager(v string) (managerSpec, error) {
	var m managerSpec
	for _, part := range strings.Split(v, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("malformed -manager element %q", part)
		}
		switch kv[0] {
		case "node":
			m.node = kv[1]
		case "id":
			m.id = kv[1]
		case "addr":
			m.addr = kv[1]
		case "metrics":
			m.metrics = kv[1]
		default:
			return m, fmt.Errorf("unknown -manager key %q", kv[0])
		}
	}
	if m.node == "" || m.id == "" || m.addr == "" {
		return m, fmt.Errorf("-manager needs node=, id= and addr=")
	}
	return m, nil
}

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:8081", "gateway HTTP listen address")
		scrape        = flag.Duration("scrape", 2*time.Second, "metrics scrape interval")
		grace         = flag.Duration("grace", 30*time.Second, "unhealthy-device grace window before instances are migrated (0 disables)")
		traceSample   = flag.Float64("trace-sample", 0, "distributed-tracing sample rate 0..1 (0 disables; spans served at /debug/spans)")
		alertInterval = flag.Duration("alert-interval", 5*time.Second, "alert rule evaluation interval")
		logLevel      = flag.String("log-level", "info", "minimum level mirrored to stderr (debug|info|warn|error)")
		logRing       = flag.Int("log-ring", 4096, "events kept in the /debug/logs ring")
		routerName    = flag.String("router", gateway.RouterRoundRobin, "routing policy: "+strings.Join(gateway.RouterNames, "|"))
		profileDir    = flag.String("profile-dir", "", "directory receiving alert-triggered pprof snapshots and SLO fast-burn explain reports (empty disables)")
		flightRing    = flag.Int("flight-ring", 0, "front-door flight-recorder ring size served at /debug/flight (0 = default 1024)")
		flightLedger  = flag.String("flight-ledger", "", "durable JSONL spill file for notable front-door flights")
		managers      listFlag
		deploys       listFlag
		admissions    listFlag
		sloFlag       slo.Flag
	)
	flag.Var(&sloFlag, "slo", "service-level objective as name:p99<50ms:99.9%[:window] (repeatable)")
	flag.Var(&managers, "manager", "Device Manager spec: node=N,id=I,addr=H:P[,metrics=URL] (repeatable)")
	flag.Var(&deploys, "deploy", "function deployment: name=usecase (usecase: sobel|mm|cnn; repeatable)")
	flag.Var(&admissions, "admission", "per-tenant admission budget: rate:burst[:priority] default, tenant=rate:burst[:priority] override (repeatable; absent disables admission control)")
	flag.Parse()
	if len(managers) == 0 {
		log.Fatal("gateway: at least one -manager is required")
	}

	sinkLevel, err := logx.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	rootLog := logx.New(logx.Config{
		Component: "gateway",
		RingSize:  *logRing,
		Sink:      logx.TextSink(os.Stderr),
		SinkLevel: sinkLevel,
	})

	cl := cluster.New()
	db := metrics.NewTSDB(15 * time.Minute)
	scraper := metrics.NewScraper(db, *scrape)
	scraper.OnHealth = func(target string, up bool, err error) {
		if up {
			rootLog.Info("scrape target recovered", "target", target)
		} else {
			rootLog.Warn("scrape target down", "target", target, "err", err)
		}
	}
	gatherer := registry.NewGatherer(db)
	reg, err := registry.New(registry.DefaultPolicy(gatherer))
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	// Planning-mode lifecycle service: the Registry opens a flash window
	// per board reprogram it commits to, the controller attributes drained
	// sessions, and the managers' Build calls close the windows through
	// the reconfiguration gate. Served at /debug/flash for blastctl.
	flashSvc, err := flash.New(flash.Config{Log: rootLog.Named("flash")})
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	defer flashSvc.Close()
	reg.SetFlash(flashSvc)

	// explainBases are the process base URLs the postmortem engine queries
	// when an SLO fast-burn fires: this gateway plus every manager that
	// advertises a metrics URL (its debug endpoints ride the same mux).
	explainBases := []string{"http://" + *listen}
	for _, raw := range managers {
		m, err := parseManager(raw)
		if err != nil {
			log.Fatalf("gateway: %v", err)
		}
		if m.metrics != "" {
			explainBases = append(explainBases, strings.TrimSuffix(m.metrics, "/metrics"))
		}
		if err := cl.AddNode(cluster.Node{Name: m.node}); err != nil && !strings.Contains(err.Error(), "already") {
			log.Fatalf("gateway: %v", err)
		}
		if err := reg.RegisterDevice(registry.Device{
			ID: m.id, Node: m.node,
			Vendor:      "Intel(R) Corporation",
			Platform:    "Intel(R) FPGA SDK for OpenCL(TM)",
			ManagerAddr: m.addr, MetricsURL: m.metrics,
		}); err != nil {
			log.Fatalf("gateway: %v", err)
		}
		if m.metrics != "" {
			scraper.AddTarget(m.id, m.metrics)
		}
	}

	// The gateway process owns the TSDB here, so it also runs the alert
	// engine over it; the firing gauge rides a local metrics registry.
	// That registry is itself a local scrape target: the gateway's
	// per-function SLI counters and bf_runtime_* series land in the TSDB
	// next to the managers' series, so SLO and leak rules see them.
	alertReg := metrics.NewRegistry()
	runtimeCol := obs.NewRuntimeCollector(alertReg, metrics.Labels{"component": "gateway"})
	scraper.AddLocalTarget("gateway", alertReg)
	capture := &obs.ProfileCapture{Dir: *profileDir}
	sloEngine := slo.NewEngine(db)
	// Gateway objectives name functions, and the series that carry a
	// function label are the gateway's own front-door SLIs — the
	// manager-side bf_task_latency_seconds is labelled per replica
	// (tenant="sobel-1-1") and would never match. Point unset latency
	// SLIs at the front-door histogram scraped just above.
	for i := range sloFlag.Objectives {
		if sloFlag.Objectives[i].LatencyMetric == "" {
			sloFlag.Objectives[i].LatencyMetric = "bf_function_latency_seconds"
		}
	}
	sloEngine.Add(sloFlag.Objectives...)
	engine := alert.NewEngine(alert.Config{
		Log:      rootLog.Named("alert"),
		Registry: alertReg,
		OnFire: func(rule alert.Rule, st alert.Status) {
			if paths, err := capture.Capture(rule.Name); err != nil {
				rootLog.Warn("profile capture failed", "rule", rule.Name, "err", err)
			} else if paths != nil {
				rootLog.Info("profile captured", "rule", rule.Name, "files", len(paths))
			}
			// An SLO fast-burn page captures a postmortem next to the pprof
			// snapshots: the breaching objective's exemplar trace, explained
			// across every process the gateway knows about.
			if rule.Name != "SLOFastBurn" || *profileDir == "" {
				return
			}
			trace := exemplarTrace(sloEngine, st.Labels["slo"])
			if trace == 0 {
				rootLog.Warn("no exemplar trace for explain capture", "slo", st.Labels["slo"])
				return
			}
			go func() {
				if path, err := flightrec.CaptureExplain(*profileDir, rule.Name, explainBases, trace); err != nil {
					rootLog.Warn("explain capture failed", "rule", rule.Name, "err", err)
				} else {
					rootLog.Info("explain captured", "rule", rule.Name, "file", path, "trace", trace)
				}
			}()
		},
	})
	engine.Add(alert.DefaultRules(db)...)
	engine.Add(sloEngine.Rules()...)
	engine.Add(alert.Rule{
		Name: "DeviceUnhealthy",
		Help: "device unreachable past the migration grace period",
		Source: alert.Func(func(now time.Time) []alert.Observation {
			var out []alert.Observation
			for _, id := range reg.UnhealthyPastGrace(*grace) {
				out = append(out, alert.Observation{Labels: metrics.Labels{"device": id}, Value: 1})
			}
			return out
		}),
		Op:        alert.OpGreater,
		Threshold: 0,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go scraper.Run(ctx)
	go engine.Run(ctx, *alertInterval)
	go runtimeCol.Run(ctx, *scrape)
	// Propagate scrape health into allocation decisions.
	go func() {
		ticker := time.NewTicker(*scrape)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, d := range reg.Devices() {
					if d.MetricsURL != "" {
						reg.SetDeviceHealth(d.ID, scraper.LastError(d.ID))
					}
				}
			}
		}
	}()
	ctrl := registry.NewController(reg, cl)
	ctrl.Grace = *grace
	ctrl.Log = rootLog.Named("registry")
	go ctrl.Run(ctx)
	gw := gateway.New(cl)
	gw.Log = rootLog
	gw.Metrics = alertReg
	// Front-door flight recorder: every request leaves a milestone
	// skeleton at /debug/flight, notable ones spill to the ledger.
	gwFlight := flightrec.New(flightrec.Config{
		Process:    "gateway",
		Flights:    *flightRing,
		LedgerPath: *flightLedger,
	})
	defer gwFlight.Close()
	gw.Flight = gwFlight
	// A factory returning a live endpoint means the instance's program
	// build landed on its board: close the flash window the allocation
	// opened so /debug/flash shows only genuinely pending reprograms.
	gw.OnReady = func(in cluster.Instance) { reg.BuildLanded(in.Name) }
	router, err := gateway.NewRouter(*routerName)
	if err != nil {
		log.Fatalf("gateway: %v", err)
	}
	gw.Router = router
	if len(admissions) > 0 {
		adm, err := gateway.ParseAdmission(admissions)
		if err != nil {
			log.Fatalf("gateway: %v", err)
		}
		gw.Admission = adm
		rootLog.Info("admission control enabled", "specs", strings.Join(admissions, " "))
	}
	// One shared tracer for every function instance in this process: the
	// Remote Library samples traces at the configured rate and the spans
	// are served from the gateway's /debug/spans.
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.New(obs.Config{Component: "library", SampleRate: *traceSample})
		gw.Tracer = tracer
	}
	go gw.Run(ctx)

	for _, d := range deploys {
		kv := strings.SplitN(d, "=", 2)
		if len(kv) != 2 {
			log.Fatalf("gateway: malformed -deploy %q", d)
		}
		name, usecase := kv[0], kv[1]
		// An optional "@N" suffix sets the function's fair-share weight,
		// e.g. -deploy sobel-1=sobel@3.
		weight := 0
		if at := strings.LastIndex(usecase, "@"); at >= 0 {
			w, err := strconv.Atoi(usecase[at+1:])
			if err != nil || w < 1 {
				log.Fatalf("gateway: malformed weight in -deploy %q", d)
			}
			usecase, weight = usecase[:at], w
		}
		if err := reg.RegisterFunction(registry.Function{
			Name:      name,
			Query:     registry.DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: accelerator(usecase)},
			Bitstream: bitstream(usecase),
			Weight:    weight,
		}); err != nil {
			log.Fatalf("gateway: %v", err)
		}
		if err := gw.Deploy(name, 1, factory(name, usecase, tracer, rootLog.Named("library"))); err != nil {
			log.Fatalf("gateway: deploy %s: %v", name, err)
		}
		rootLog.Info("deployed function", "function", name, "usecase", usecase)
	}

	mux := http.NewServeMux()
	mux.Handle("/", gw.Handler())
	// The in-process registry's API rides the same port, so blastctl
	// devices/top work against the all-in-one deployment too.
	regAPI := reg.Handler()
	mux.Handle("/devices", regAPI)
	mux.Handle("/functions", regAPI)
	mux.Handle("/healthz", regAPI)
	mux.Handle("/debug/logs", rootLog.Handler())
	mux.Handle("/debug/alerts", engine.Handler())
	mux.Handle("/debug/flash", flashSvc.Handler())
	mux.Handle("/debug/slo", sloEngine.Handler())
	mux.Handle("/metrics", alertReg.Handler())
	obs.RegisterPprof(mux)
	srv := &http.Server{Addr: *listen, Handler: mux}
	go func() {
		rootLog.Info("serving", "addr", "http://"+*listen+"/function/<name>")
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("gateway: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	rootLog.Info("shutting down")
	shutCtx, cancelShut := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil {
		rootLog.Warn("shutdown cut short", "err", err)
	}
}

// shutdownGrace bounds how long SIGTERM waits for in-flight requests.
const shutdownGrace = 10 * time.Second

// exemplarTrace pulls the named objective's freshest latency exemplar:
// the concrete over-target request behind the burning quantile. An empty
// objective name matches any objective carrying an exemplar.
func exemplarTrace(eng *slo.Engine, objective string) obs.TraceID {
	for _, r := range eng.ReportAt(time.Now()) {
		if objective != "" && r.Name != objective {
			continue
		}
		if r.Latency.ExemplarTrace == "" {
			continue
		}
		if id, err := obs.ParseTraceID(r.Latency.ExemplarTrace); err == nil && id != 0 {
			return id
		}
	}
	return 0
}

func accelerator(usecase string) string {
	switch usecase {
	case "cnn":
		return "pipecnn"
	default:
		return usecase
	}
}

func bitstream(usecase string) string {
	switch usecase {
	case "sobel":
		return accel.SobelBitstreamID
	case "mm":
		return accel.MMBitstreamID
	case "cnn":
		return accel.PipeCNNBitstreamID
	}
	return usecase
}

// factory materializes a function instance: it dials the Device Manager
// the Registry injected into the environment and builds the matching app.
// A non-nil tracer enables distributed tracing in the instance's Remote
// Library; lg carries its structured events into the process log ring.
func factory(name, usecase string, tracer *obs.Tracer, lg *logx.Logger) gateway.Factory {
	return func(in cluster.Instance) (gateway.Endpoint, error) {
		addr := in.Env[registry.EnvManagerAddr]
		if addr == "" {
			return nil, fmt.Errorf("instance %s has no %s", in.Name, registry.EnvManagerAddr)
		}
		// The Registry-propagated fair-share weight rides the binding; a
		// missing or malformed value means unweighted.
		weight, _ := strconv.Atoi(in.Env[registry.EnvWeight])
		client, err := remote.Dial(remote.Config{
			ClientName: in.Name,
			Managers:   []string{addr},
			Transport:  remote.TransportAuto,
			Weight:     weight,
			Tracer:     tracer,
			Log:        lg,
		})
		if err != nil {
			return nil, err
		}
		var handler http.Handler
		switch usecase {
		case "sobel":
			app, err := apps.NewSobel(client, 0, 1920, 1080)
			if err != nil {
				client.Close()
				return nil, err
			}
			handler = apps.SobelHandler(app, 1920, 1080)
		case "mm":
			app, err := apps.NewMM(client, 0, 1024)
			if err != nil {
				client.Close()
				return nil, err
			}
			handler = apps.MMHandler(app, 512)
		case "cnn":
			app, err := apps.NewCNN(client, 0, accel.TinyCNN())
			if err != nil {
				client.Close()
				return nil, err
			}
			handler = apps.CNNHandler(app)
		default:
			client.Close()
			return nil, fmt.Errorf("unknown use case %q for %s", usecase, name)
		}
		return gateway.HandlerEndpoint{Handler: handler, CloseFunc: client.Close}, nil
	}
}
