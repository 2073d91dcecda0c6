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
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/apps"
	"blastfunction/internal/cluster"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/gateway"
	"blastfunction/internal/obs"
	"blastfunction/internal/opsplane"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
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
		base opsplane.Flags
		// Gateway objectives name functions, and the series that carry a
		// function label are the gateway's own front-door SLIs — the
		// manager-side bf_task_latency_seconds is labelled per replica
		// (tenant="sobel-1-1") and would never match. Unset latency SLIs
		// read the front-door histogram instead.
		mon                           = opsplane.MonitorConfig{LatencyMetric: "bf_function_latency_seconds"}
		managers, deploys, admissions listFlag
	)
	listen := flag.String("listen", "127.0.0.1:8081", "gateway HTTP listen address")
	flag.DurationVar(&mon.Grace, "grace", 30*time.Second, "unhealthy-device grace window before instances are migrated (0 disables)")
	traceSample := flag.Float64("trace-sample", 0, "distributed-tracing sample rate 0..1 (0 disables; sampled flights served at /debug/flight?trace=)")
	routerName := flag.String("router", gateway.RouterRoundRobin, "routing policy: "+strings.Join(gateway.RouterNames, "|"))
	flightRing := flag.Int("flight-ring", 0, "flight-recorder ring size, front-door and library flights together, served at /debug/flight (0 = default 1024)")
	flightLedger := flag.String("flight-ledger", "", "durable JSONL spill file for notable front-door and library flights")
	flag.Var(&managers, "manager", "Device Manager spec: node=N,id=I,addr=H:P[,metrics=URL] (repeatable)")
	flag.Var(&deploys, "deploy", "function deployment: name=usecase (usecase: sobel|mm|cnn; repeatable)")
	flag.Var(&admissions, "admission", "per-tenant admission budget: rate:burst[:priority] default, tenant=rate:burst[:priority] override (repeatable; absent disables admission control)")
	base.Register(flag.CommandLine)
	mon.Register(flag.CommandLine)
	flag.Parse()
	if len(managers) == 0 {
		log.Fatal("gateway: at least one -manager is required")
	}

	p := opsplane.New("gateway", "gateway", base)
	router, err := gateway.NewRouter(*routerName)
	if err != nil {
		p.Fatal(err)
	}
	p.Listen(*listen)
	m, err := opsplane.NewMonitor(p, mon)
	if err != nil {
		p.Fatal(err)
	}
	defer m.Close()
	reg := m.Registry

	cl := cluster.New()
	for _, raw := range managers {
		spec, err := parseManager(raw)
		if err != nil {
			p.Fatal(err)
		}
		if err := cl.AddNode(cluster.Node{Name: spec.node}); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
			p.Fatal(err)
		}
		if err := reg.RegisterDevice(registry.Device{
			ID: spec.id, Node: spec.node,
			Vendor:      "Intel(R) Corporation",
			Platform:    "Intel(R) FPGA SDK for OpenCL(TM)",
			ManagerAddr: spec.addr, MetricsURL: spec.metrics,
		}); err != nil {
			p.Fatal(err)
		}
	}
	// The first device sync scrapes every -manager from the start.
	m.Start()

	ctrl := registry.NewController(reg, cl)
	ctrl.Grace = mon.Grace
	ctrl.Log = p.Log.Named("registry")
	go ctrl.Run(p.Context())
	gw := gateway.New(cl)
	gw.Log = p.Log
	// The gateway's per-function SLI counters ride the monitor's local
	// registry, so they land in the TSDB next to the managers' series.
	gw.Metrics = m.Metrics
	// The process's flight recorder: every request leaves a front-door
	// milestone skeleton and every task of a function instance its Remote
	// Library's, all served at /debug/flight; notable ones spill to the
	// ledger.
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
	gw.Router = router
	if len(admissions) > 0 {
		adm, err := gateway.ParseAdmission(admissions)
		if err != nil {
			p.Fatal(err)
		}
		gw.Admission = adm
		p.Log.Info("admission control enabled", "specs", strings.Join(admissions, " "))
	}
	// One shared tracer for every function instance in this process: the
	// Remote Library samples tasks at the configured rate, and a sampled
	// task's flight here and on its manager share the trace ID.
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.New(*traceSample)
	}
	go gw.Run(p.Context())

	lib := remote.Config{Transport: remote.TransportAuto, Tracer: tracer, Log: p.Log.Named("library"), Flight: gwFlight}
	for _, d := range deploys {
		kv := strings.SplitN(d, "=", 2)
		if len(kv) != 2 {
			p.Fatal(fmt.Errorf("malformed -deploy %q", d))
		}
		name, usecase := kv[0], kv[1]
		// An optional "@N" suffix sets the function's fair-share weight,
		// e.g. -deploy sobel-1=sobel@3.
		weight := 0
		if at := strings.LastIndex(usecase, "@"); at >= 0 {
			w, err := strconv.Atoi(usecase[at+1:])
			if err != nil || w < 1 {
				p.Fatal(fmt.Errorf("malformed weight in -deploy %q", d))
			}
			usecase, weight = usecase[:at], w
		}
		if err := reg.RegisterFunction(registry.Function{
			Name:      name,
			Query:     registry.DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: accelerator(usecase)},
			Bitstream: bitstream(usecase),
			Weight:    weight,
		}); err != nil {
			p.Fatal(err)
		}
		if err := gw.Deploy(name, 1, factory(name, usecase, lib)); err != nil {
			p.Fatal(fmt.Errorf("deploy %s: %w", name, err))
		}
		p.Log.Info("deployed function", "function", name, "usecase", usecase)
	}

	p.Mux.Handle("/", gw.Handler())
	// The in-process registry's API rides the same port, so blastctl
	// devices/top work against the all-in-one deployment too.
	regAPI := reg.Handler()
	p.Mux.Handle("/devices", regAPI)
	p.Mux.Handle("/functions", regAPI)
	p.Mux.Handle("/healthz", regAPI)
	p.Run()
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
// lib holds what the instance's Remote Library shares with the process:
// its transport policy, tracer, log ring and flight recorder.
func factory(name, usecase string, lib remote.Config) gateway.Factory {
	return func(in cluster.Instance) (gateway.Endpoint, error) {
		addr := in.Env[registry.EnvManagerAddr]
		if addr == "" {
			return nil, fmt.Errorf("instance %s has no %s", in.Name, registry.EnvManagerAddr)
		}
		// The Registry-propagated fair-share weight rides the binding; a
		// missing or malformed value means unweighted.
		weight, _ := strconv.Atoi(in.Env[registry.EnvWeight])
		cfg := lib
		cfg.ClientName, cfg.Managers, cfg.Weight = in.Name, []string{addr}, weight
		// The instance's node turns the co-location check on: shared
		// memory only with a manager that reports the same node.
		cfg.Node = in.Env[registry.EnvNode]
		client, err := remote.Dial(cfg)
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
