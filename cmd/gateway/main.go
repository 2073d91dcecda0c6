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
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"blastfunction/internal/gateway"
	"blastfunction/internal/opsplane"
	"blastfunction/internal/stack"
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

	cp := stack.NewControlPlane(stack.ControlPlaneConfig{
		Registry: m.Registry, Log: p.Log,
		TraceSample: *traceSample, FlightRing: *flightRing, FlightLedger: *flightLedger,
	})
	cp.Controller.Grace = mon.Grace
	// The gateway's per-function SLI counters ride the monitor's local
	// registry, so they land in the TSDB next to the managers' series.
	cp.Gateway.Metrics = m.Metrics
	cp.Gateway.Router = router
	if len(admissions) > 0 {
		if cp.Gateway.Admission, err = gateway.ParseAdmission(admissions); err != nil {
			p.Fatal(err)
		}
		p.Log.Info("admission control enabled", "specs", strings.Join(admissions, " "))
	}
	for _, raw := range managers {
		spec, err := parseManager(raw)
		if err != nil {
			p.Fatal(err)
		}
		if err := cp.AddManager(spec.node, spec.id, spec.addr, spec.metrics); err != nil {
			p.Fatal(err)
		}
	}
	// The first device sync scrapes every -manager from the start.
	m.Start()
	cp.Start()
	// Stopping waits for the instances' endpoints to close, so a SIGTERM
	// leaves no shared-memory segment behind.
	defer cp.Close()

	for _, d := range deploys {
		name, usecase, ok := strings.Cut(d, "=")
		if !ok {
			p.Fatal(fmt.Errorf("malformed -deploy %q", d))
		}
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
		if err := cp.Deploy(name, usecase, weight); err != nil {
			p.Fatal(err)
		}
		p.Log.Info("deployed function", "function", name, "usecase", usecase)
	}

	p.Mux.Handle("/", cp.Handler())
	p.Run()
}
