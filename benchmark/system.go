package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/cluster"
	"blastfunction/internal/flash"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/fpga"
	"blastfunction/internal/gateway"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
	"blastfunction/internal/registry"
	"blastfunction/internal/remote"
	"blastfunction/internal/rpc"
)

const (
	nodeName   = "B"
	deviceID   = "fpga-B"
	vendor     = "Intel(R) Corporation"
	platform   = "Intel(R) FPGA SDK for OpenCL(TM)"
	scrapeTick = 2 * time.Second // cmd/gateway's -scrape default
	leaseTime  = 30 * time.Second
	readyLimit = 30 * time.Second
)

// tenantSpec is one deployed function and the load on it.
type tenantSpec struct {
	name         string
	payloadBytes int
	rate         float64 // requests per second; 0 = closed loop
}

// systemConfig is what a workload varies about the system under test.
type systemConfig struct {
	timeScale float64 // fpga.Config.TimeScale: 0 = no modelled sleeps, 1 = faithful
	transport remote.TransportMode
	tenants   []tenantSpec
	admission bool   // per-tenant budgets at twice each tenant's rate
	shmDir    string // harness-owned; segments must be gone at tear-down
	seed      int64
	traced    bool
}

// instance is what the harness-owned factory built for one tenant.
type instance struct {
	spec     tenantSpec
	client   *remote.Client
	name     string // instance name = the manager's tenant label
	rec      *recorder
	probe    *connProbe
	dial     time.Duration
	app      appTimings
	deployed time.Duration // Deploy to ReadyReplicas > 0
}

// system is the whole BlastFunction stack in this process, wired the way
// cmd/devicemanager and cmd/gateway wire it with default flags: one board
// behind a Device Manager on a loopback RPC listener, its metrics endpoint
// scraped over HTTP, cluster + Registry (Algorithm 1) + planning-mode
// flash service + controller, and the gateway served over real HTTP.
type system struct {
	cfg      systemConfig
	base     time.Time // zero of every span and probe timestamp
	payloads map[string][][]byte

	board      *fpga.Board
	mgr        *manager.Manager
	rpcSrv     *rpc.Server
	metricsSrv *httptest.Server
	cl         *cluster.Cluster
	reg        *registry.Registry
	flashSvc   *flash.Service
	scraper    *metrics.Scraper
	gw         *gateway.Gateway
	gwFlight   *flightrec.Recorder
	gwSrv      *httptest.Server

	cancel context.CancelFunc
	wg     sync.WaitGroup // scraper, controller and gateway loops

	probes probeTable

	mu        sync.Mutex
	instances map[string]*instance // by function name
}

// quietLog is the binaries' Info logger with its sink on io.Discard: the
// ring and level checks cost what they cost in production, nothing
// reaches the terminal.
func quietLog(component string) *logx.Logger {
	return logx.New(logx.Config{Component: component, Sink: logx.TextSink(io.Discard), SinkLevel: logx.LevelInfo})
}

// payloadsFor generates a tenant's four payloads from the seed.
func payloadsFor(seed int64, spec tenantSpec) [][]byte {
	rng := newRand(seed, "payload/"+spec.name)
	out := make([][]byte, 4)
	for i := range out {
		out[i] = make([]byte, spec.payloadBytes)
		rng.Read(out[i])
	}
	return out
}

// startSystem builds the stack and deploys every tenant's function
// through the Registry and the gateway; it returns once each function has
// a ready replica.
func startSystem(cfg systemConfig) (s *system, err error) {
	s = &system{cfg: cfg, base: time.Now(), instances: make(map[string]*instance),
		payloads: make(map[string][][]byte)}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()

	// Device Manager side (cmd/devicemanager).
	mgrLog := quietLog("manager")
	bcfg := fpga.DE5aNet(model.WorkerNode())
	bcfg.TimeScale = cfg.timeScale
	s.board = fpga.NewBoard(bcfg, accel.Catalog())
	s.mgr = manager.New(manager.Config{
		Node: nodeName, DeviceID: deviceID, LeaseDuration: leaseTime, Scheduler: "fifo", Log: mgrLog,
	}, s.board)
	s.rpcSrv = rpc.NewServer(s.mgr)
	s.rpcSrv.Log = mgrLog.Named("rpc")
	if cfg.traced {
		s.rpcSrv.WrapConn = func(c net.Conn) net.Conn { return &serverConn{Conn: c, table: &s.probes} }
	}
	addr, err := s.rpcSrv.Listen("127.0.0.1:0")
	if err != nil {
		return s, fmt.Errorf("manager listen: %w", err)
	}
	s.metricsSrv = httptest.NewServer(s.mgr.MetricsHandler())

	// Control plane and front door (cmd/gateway).
	gwLog := quietLog("gateway")
	s.cl = cluster.New()
	db := metrics.NewTSDB(15 * time.Minute)
	s.scraper = metrics.NewScraper(db, scrapeTick)
	if s.reg, err = registry.New(registry.DefaultPolicy(registry.NewGatherer(db))); err != nil {
		return s, err
	}
	if s.flashSvc, err = flash.New(flash.Config{Log: gwLog.Named("flash")}); err != nil {
		return s, err
	}
	s.reg.SetFlash(s.flashSvc)
	if err = s.cl.AddNode(cluster.Node{Name: nodeName}); err != nil {
		return s, err
	}
	if err = s.reg.RegisterDevice(registry.Device{
		ID: deviceID, Node: nodeName, Vendor: vendor, Platform: platform,
		ManagerAddr: addr, MetricsURL: s.metricsSrv.URL,
	}); err != nil {
		return s, err
	}
	s.scraper.AddTarget(deviceID, s.metricsSrv.URL)
	gwReg := metrics.NewRegistry()
	s.scraper.AddLocalTarget("gateway", gwReg)

	ctrl := registry.NewController(s.reg, s.cl)
	ctrl.Grace = 30 * time.Second
	ctrl.Log = gwLog.Named("registry")
	s.gw = gateway.New(s.cl)
	s.gw.Log = gwLog
	s.gw.Metrics = gwReg
	s.gwFlight = flightrec.New(flightrec.Config{Process: "gateway"})
	s.gw.Flight = s.gwFlight
	s.gw.OnReady = func(in cluster.Instance) { s.reg.BuildLanded(in.Name) }
	if s.gw.Router, err = gateway.NewRouter(gateway.RouterRoundRobin); err != nil {
		return s, err
	}
	if cfg.admission {
		// Budgets at twice each tenant's rate, one second of burst: the
		// check is on every request's path and never refuses one.
		s.gw.Admission = gateway.NewAdmission(gateway.Budget{})
		for _, t := range cfg.tenants {
			s.gw.Admission.SetBudget(t.name, gateway.Budget{Rate: 2 * t.rate, Burst: 2 * t.rate})
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for _, loop := range []func(context.Context){s.scraper.Run, ctrl.Run, s.gw.Run} {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			loop(ctx)
		}()
	}
	handler := s.gw.Handler()
	if cfg.traced {
		handler = s.traceGateway(handler)
	}
	s.gwSrv = httptest.NewServer(handler)

	for _, t := range cfg.tenants {
		if err = s.deploy(t); err != nil {
			return s, err
		}
	}
	return s, nil
}

// traceGateway is the HTTP middleware of traced runs: the span around
// gateway.Handler().
func (s *system) traceGateway(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rec *recorder
		if in := s.instanceOf(strings.TrimPrefix(r.URL.Path, "/function/")); in != nil {
			rec = in.rec
		}
		id := rec.begin(spanGateway)
		next.ServeHTTP(w, r)
		rec.end(id)
	})
}

func (s *system) instanceOf(function string) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instances[function]
}

// deploy registers the function with the Registry and deploys it through
// the gateway, so Algorithm 1, the cluster binding, the flash window and
// the gateway's materialization are all on the set-up path.
func (s *system) deploy(t tenantSpec) error {
	s.payloads[t.name] = payloadsFor(s.cfg.seed, t)
	if err := s.reg.RegisterFunction(registry.Function{
		Name:      t.name,
		Query:     registry.DeviceQuery{Vendor: vendor, Accelerator: "loopback"},
		Bitstream: accel.LoopbackBitstreamID,
	}); err != nil {
		return err
	}
	start := time.Now()
	if err := s.gw.Deploy(t.name, 1, s.factory(t)); err != nil {
		return err
	}
	for s.gw.ReadyReplicas(t.name) == 0 {
		if time.Since(start) > readyLimit {
			return fmt.Errorf("function %s not ready after %v", t.name, readyLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.instanceOf(t.name).deployed = time.Since(start)
	return nil
}

// factory is the harness-owned gateway.Factory: cmd/gateway's factory with
// the loopback function in place of the three paper apps, the workload's
// transport, and (traced runs only) the connection and queue wrappers.
func (s *system) factory(t tenantSpec) gateway.Factory {
	return func(in cluster.Instance) (gateway.Endpoint, error) {
		addr := in.Env[registry.EnvManagerAddr]
		if addr == "" {
			return nil, fmt.Errorf("instance %s has no %s", in.Name, registry.EnvManagerAddr)
		}
		inst := &instance{spec: t, name: in.Name}
		rcfg := remote.Config{
			ClientName: in.Name,
			Managers:   []string{addr},
			Transport:  s.cfg.transport,
			ShmDir:     s.cfg.shmDir,
			Log:        s.gw.Log.Named("library"),
		}
		var wrap func(ocl.CommandQueue) ocl.CommandQueue
		if s.cfg.traced {
			inst.rec = newRecorder(s.base, 1<<20)
			inst.probe = &connProbe{base: s.base}
			rcfg.DialConn = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				s.probes.register(c.LocalAddr(), inst.probe)
				return &clientConn{Conn: c, p: inst.probe}, nil
			}
			wrap = func(q ocl.CommandQueue) ocl.CommandQueue {
				return &tracedQueue{CommandQueue: q, rec: inst.rec, probe: inst.probe}
			}
		}
		start := time.Now()
		client, err := remote.Dial(rcfg)
		if err != nil {
			return nil, err
		}
		inst.dial = time.Since(start)
		app, tm, err := newLoopback(client, s.payloads[t.name], wrap)
		if err != nil {
			client.Close()
			return nil, err
		}
		inst.client, inst.app = client, tm
		s.mu.Lock()
		s.instances[t.name] = inst
		s.mu.Unlock()
		handler := http.Handler(loopbackHandler(app))
		if s.cfg.traced {
			inner := handler
			handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				id := inst.rec.begin(spanApps)
				inner.ServeHTTP(w, r)
				inst.rec.end(id)
			})
		}
		// The harness closes the client itself at tear-down: the gateway
		// only closes endpoints of deleted instances.
		return gateway.HandlerEndpoint{Handler: handler}, nil
	}
}

// close tears everything down in dependency order and reports what was
// left behind. It is safe on a partly built system.
func (s *system) close() error {
	var errs []error
	if s.gwSrv != nil {
		s.gwSrv.Close()
	}
	if s.cancel != nil {
		s.cancel()
		s.wg.Wait()
	}
	s.mu.Lock()
	for _, in := range s.instances {
		if err := in.client.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing %s: %w", in.name, err))
		}
	}
	s.mu.Unlock()
	if s.flashSvc != nil {
		s.flashSvc.Close()
	}
	s.gwFlight.Close()
	if s.metricsSrv != nil {
		s.metricsSrv.Close()
	}
	if s.rpcSrv != nil {
		s.rpcSrv.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
	// The scraper fetches through http.DefaultTransport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if left, err := os.ReadDir(s.cfg.shmDir); err == nil && len(left) > 0 {
		errs = append(errs, fmt.Errorf("%d shm segment file(s) left in %s", len(left), s.cfg.shmDir))
	}
	return errors.Join(errs...)
}

// goroutinesLeaked waits for the goroutine count to fall back to before
// and returns how many are still above it after a grace period.
func goroutinesLeaked(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}
