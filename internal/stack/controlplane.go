package stack

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"blastfunction/internal/accel"
	"blastfunction/internal/apps"
	"blastfunction/internal/cluster"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/gateway"
	"blastfunction/internal/logx"
	"blastfunction/internal/obs"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
)

// vendor is every simulated board's: a DE5a-Net under the Intel FPGA SDK.
const vendor = "Intel(R) Corporation"

// ControlPlaneConfig describes the gateway process's control plane. The
// controller's and the gateway's own policy fields (Grace; Router,
// Admission, Metrics) are set on them before Run.
type ControlPlaneConfig struct {
	// Registry places instances on devices. cmd/gateway's comes from its
	// monitor, whose Gatherer feeds placement the scraped utilization.
	Registry *registry.Registry
	// Log is the process logger: the gateway logs to it, the controller
	// as "registry" and the Remote Libraries as "library".
	Log *logx.Logger
	// TraceSample is the Remote Libraries' task sampling rate, 0..1 (0
	// disables tracing).
	TraceSample float64
	// FlightRing sizes the process flight recorder (0 = default 1024);
	// FlightLedger names its durable spill file ("" keeps none).
	FlightRing   int
	FlightLedger string
}

// ControlPlane is the cluster orchestrator, the Registry's controller and
// the serverless gateway, with one flight recorder for the process: every
// request leaves its front-door flight there and every function
// instance's Remote Library its task flights.
type ControlPlane struct {
	Cluster    *cluster.Cluster
	Registry   *registry.Registry
	Controller *registry.Controller
	Gateway    *gateway.Gateway

	// lib is what every instance's Remote Library shares with the
	// process: transport policy, tracer, log and flight recorder.
	lib  remote.Config
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// NewControlPlane wires the control plane; Start runs it.
func NewControlPlane(cfg ControlPlaneConfig) *ControlPlane {
	cl := cluster.New()
	c := &ControlPlane{Cluster: cl, Registry: cfg.Registry,
		Controller: registry.NewController(cfg.Registry, cl), Gateway: gateway.New(cl)}
	c.Controller.Log = cfg.Log.Named("registry")
	gw := c.Gateway
	gw.Log = cfg.Log
	gw.Flight = flightrec.New(flightrec.Config{Process: "gateway", Flights: cfg.FlightRing, LedgerPath: cfg.FlightLedger})
	// A factory returning a live endpoint means the instance's program
	// build landed on its board: close the flash window the allocation
	// opened so /debug/flash shows only genuinely pending reprograms.
	gw.OnReady = func(in cluster.Instance) { cfg.Registry.BuildLanded(in.Name) }

	// One tracer for every function instance: a sampled task's flight
	// here and on its manager share the trace ID.
	var tracer *obs.Tracer
	if cfg.TraceSample > 0 {
		tracer = obs.New(cfg.TraceSample)
	}
	c.lib = remote.Config{Transport: remote.TransportAuto, Tracer: tracer, Log: cfg.Log.Named("library"), Flight: gw.Flight}
	return c
}

// AddManager registers the Device Manager serving device id on node at
// the RPC address addr, its metrics at metricsURL ("" when not scraped),
// and adds node to the cluster if it is new.
func (c *ControlPlane) AddManager(node, id, addr, metricsURL string) error {
	if err := c.Cluster.AddNode(cluster.Node{Name: node}); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return err
	}
	return c.Registry.RegisterDevice(registry.Device{
		ID: id, Node: node, Vendor: vendor, Platform: "Intel(R) FPGA SDK for OpenCL(TM)",
		ManagerAddr: addr, MetricsURL: metricsURL,
	})
}

// Deploy registers function name running usecase (sobel, mm or cnn)
// with the Registry, weight its fair share (0 = unweighted), and deploys
// one instance of it on the gateway. An unknown use case fails before
// anything is registered.
func (c *ControlPlane) Deploy(name, usecase string, weight int) error {
	uc, ok := useCases[usecase]
	if !ok {
		return fmt.Errorf("deploy %s: unknown use case %q (want %s)", name, usecase, useCaseNames)
	}
	if err := c.Registry.RegisterFunction(registry.Function{
		Name:      name,
		Query:     registry.DeviceQuery{Vendor: vendor, Accelerator: uc.accelerator},
		Bitstream: uc.bitstream,
		Weight:    weight,
	}); err != nil {
		return err
	}
	if err := c.Gateway.Deploy(name, 1, factory(uc.handler, c.lib)); err != nil {
		return fmt.Errorf("deploy %s: %w", name, err)
	}
	return nil
}

// Start runs the controller and the gateway until Close.
func (c *ControlPlane) Start() {
	ctx, stop := context.WithCancel(context.Background())
	c.stop = stop
	c.wg.Add(2)
	go func() { defer c.wg.Done(); c.Controller.Run(ctx) }()
	go func() { defer c.wg.Done(); c.Gateway.Run(ctx) }()
}

// Handler serves the gateway's routes, with the Registry's API on
// /devices, /functions and /healthz, so blastctl devices/top work against
// the all-in-one deployment too.
func (c *ControlPlane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.Gateway.Handler())
	regAPI := c.Registry.Handler()
	mux.Handle("/devices", regAPI)
	mux.Handle("/functions", regAPI)
	mux.Handle("/healthz", regAPI)
	return mux
}

// Close stops a started control plane. It returns once the gateway has
// closed its instances' endpoints, which removes their shared-memory
// segments, and the flight recorder has released its ledger.
func (c *ControlPlane) Close() {
	c.stop()
	c.wg.Wait()
	c.Gateway.Flight.Close()
}

// useCase is what a function of one use case queries for, builds, and
// serves: handler builds its app over the instance's Remote Library.
type useCase struct {
	accelerator, bitstream string
	handler                func(*remote.Client) (http.Handler, error)
}

// useCases is every use case Deploy accepts; useCaseNames lists them.
var useCases = map[string]useCase{
	"sobel": {"sobel", accel.SobelBitstreamID, func(client *remote.Client) (http.Handler, error) {
		app, err := apps.NewSobel(client, 0, 1920, 1080)
		if err != nil {
			return nil, err
		}
		return apps.SobelHandler(app, 1920, 1080), nil
	}},
	"mm": {"mm", accel.MMBitstreamID, func(client *remote.Client) (http.Handler, error) {
		app, err := apps.NewMM(client, 0, 1024)
		if err != nil {
			return nil, err
		}
		return apps.MMHandler(app, 512), nil
	}},
	"cnn": {"pipecnn", accel.PipeCNNBitstreamID, func(client *remote.Client) (http.Handler, error) {
		app, err := apps.NewCNN(client, 0, accel.TinyCNN())
		if err != nil {
			return nil, err
		}
		return apps.CNNHandler(app), nil
	}},
}

const useCaseNames = "sobel|mm|cnn"

// factory materializes a function instance: it dials the Device Manager
// the Registry injected into the environment and serves the app
// newHandler builds over it. lib holds what the instance's Remote
// Library shares with the process.
func factory(newHandler func(*remote.Client) (http.Handler, error), lib remote.Config) gateway.Factory {
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
		handler, err := newHandler(client)
		if err != nil {
			client.Close()
			return nil, err
		}
		return gateway.HandlerEndpoint{Handler: handler, CloseFunc: client.Close}, nil
	}
}
