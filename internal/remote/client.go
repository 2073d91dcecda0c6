// Package remote implements the BlastFunction Remote OpenCL Library.
//
// This is the paper's transparent integration layer (Section III-A): a
// custom OpenCL host-library implementation that applications link instead
// of the vendor runtime. Host code written against package ocl runs
// unchanged; underneath, calls travel to Device Managers over the RPC
// channel, with buffer payloads moved inline (the gRPC path) or through a
// mmap'd shared-memory segment when the manager is co-located.
//
// The asynchronous flow matches the paper's Figure 2: an enqueue creates
// an event, registers it under a fresh tag (the "pointer to the newly
// created event"), and fires an asynchronous request. The connection's
// rpc read loop is the paper's connection thread: it hands each of the
// manager's notification frames to the connection, which looks up every
// tag, finds the event, and drives its state machine (INIT -> FIRST ->
// BUFFER -> COMPLETE maps onto Queued -> Submitted -> Running ->
// Complete), finally waking any application thread polling or waiting on
// the event.
package remote

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/logx"
	"blastfunction/internal/model"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
)

// TransportMode selects how buffer payloads reach the Device Manager.
type TransportMode int

// Transport modes.
const (
	// TransportAuto uses shared memory when the manager reports the same
	// node and a segment can be created, falling back to the RPC channel
	// otherwise — the paper's policy.
	TransportAuto TransportMode = iota
	// TransportGRPC forces inline payloads (the paper's "BlastFunction"
	// series).
	TransportGRPC
	// TransportShm requires shared memory and fails if unavailable (the
	// paper's "BlastFunction shm" series).
	TransportShm
)

// Config parameterizes the Remote OpenCL Library.
type Config struct {
	// ClientName identifies this function instance to managers and the
	// Registry.
	ClientName string
	// Managers lists Device Manager addresses. Each one appears as a
	// device of the BlastFunction platform, the router's platform list.
	Managers []string
	// Node is the local node name; shared memory is attempted only when a
	// manager reports the same node. Empty disables the co-location check
	// (useful in single-process tests where both ends share /dev/shm).
	Node string
	// Transport selects the data path; default TransportAuto.
	Transport TransportMode
	// ShmDir is where segments are created (shm.DefaultDir when empty).
	ShmDir string
	// ShmBytes sizes each manager's segment; default 64 MiB.
	ShmBytes int64
	// CallTimeout bounds each unary control call; zero selects
	// rpc.DefaultCallTimeout. Command-queue traffic is asynchronous and
	// unaffected.
	CallTimeout time.Duration
	// DialConn, when set, replaces net.Dial for manager connections. Chaos
	// tests wrap the returned connection in an rpc.FaultConn.
	DialConn func(addr string) (net.Conn, error)
	// Weight is the instance's fair-share weight, declared to managers at
	// Hello; weighted disciplines serve tenants proportionally to it. Zero
	// means unweighted (managers treat it as 1). Deployed instances
	// receive it from the Registry binding via BF_TENANT_WEIGHT.
	Weight int
	// Log receives the library's structured events (connection loss,
	// operation failures, transport fallbacks), trace-correlated where a
	// task caused them. A nil logger logs nothing at zero hot-path cost.
	Log *logx.Logger
	// DisableContentCache stops the library from content-hashing full-size
	// read-only buffer payloads, so every CreateBuffer uploads its bytes
	// even when the manager's content-addressed cache holds them. Used by
	// benchmarks to measure the cache-off baseline and by tenants whose
	// handles must never alias shared device memory.
	DisableContentCache bool
	// Tracer enables distributed tracing: the library samples a trace at
	// the first operation of each flush-formed task and propagates its ID
	// to the managers, so the task's flight here and on the manager share
	// one key. Nil disables tracing entirely — the hot path then pays one
	// nil check.
	Tracer *obs.Tracer
	// Flight is the process's flight recorder, shared with whatever else
	// the process records: every flush-formed task leaves its client-side
	// milestone skeleton there (wire-send, client-observed total), keyed
	// by its trace ID when sampled and a synthetic local key otherwise.
	// Nil records nothing.
	Flight *flightrec.Recorder
}

// Client is the Remote OpenCL Library entry point; it implements
// ocl.Client. It is the paper's "central router component, which keeps the
// list of the available platforms": one BlastFunction platform whose
// devices are the connected Device Managers.
type Client struct {
	cfg Config

	mu     sync.Mutex
	conns  []*managerConn
	closed bool
}

// Dial connects to every configured Device Manager.
func Dial(cfg Config) (*Client, error) {
	if len(cfg.Managers) == 0 {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "remote: no Device Manager addresses configured")
	}
	if cfg.ClientName == "" {
		cfg.ClientName = fmt.Sprintf("client-%d", os.Getpid())
	}
	if cfg.ShmBytes <= 0 {
		cfg.ShmBytes = 64 << 20
	}
	c := &Client{cfg: cfg}
	for _, addr := range cfg.Managers {
		mc, err := dialManager(&cfg, addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("remote: manager %s: %w", addr, err)
		}
		c.conns = append(c.conns, mc)
	}
	return c, nil
}

// Platforms implements ocl.Client. BlastFunction exposes one platform
// holding every remote device.
func (c *Client) Platforms() ([]ocl.Platform, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ocl.Errf(ocl.ErrInvalidOperation, "client closed")
	}
	return []ocl.Platform{&platform{client: c}}, nil
}

// CreateContext implements ocl.Client. All devices must live on the same
// Device Manager: BlastFunction contexts do not span boards (neither do
// Intel FPGA runtime contexts span PCIe devices usefully; one board per
// context is the deployment the paper evaluates).
func (c *Client) CreateContext(devices []ocl.Device) (ocl.Context, error) {
	if len(devices) == 0 {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "no devices")
	}
	var mc *managerConn
	for _, d := range devices {
		rd, ok := d.(*device)
		if !ok {
			return nil, ocl.Errf(ocl.ErrInvalidDevice, "foreign device %T", d)
		}
		if mc == nil {
			mc = rd.mc
		} else if mc != rd.mc {
			return nil, ocl.Errf(ocl.ErrInvalidDevice, "context cannot span Device Managers")
		}
	}
	return mc.createContext(devices)
}

// Transport reports the negotiated data path of the i-th manager
// connection (diagnostics and experiments).
func (c *Client) Transport(i int) model.Transport {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.conns) {
		return model.TransportGRPC
	}
	return c.conns[i].transport()
}

// Close implements ocl.Client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.mu.Unlock()
	var errs []error
	for _, mc := range conns {
		if err := mc.close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// platform is the BlastFunction OpenCL platform.
type platform struct{ client *Client }

// Name implements ocl.Platform.
func (p *platform) Name() string { return "BlastFunction Remote OpenCL" }

// Vendor implements ocl.Platform.
func (p *platform) Vendor() string { return "Politecnico di Milano (reproduction)" }

// Version implements ocl.Platform.
func (p *platform) Version() string { return "OpenCL 1.2 blastfunction-remote" }

// Devices implements ocl.Platform.
func (p *platform) Devices(typ ocl.DeviceType) ([]ocl.Device, error) {
	if typ&(ocl.DeviceTypeAccelerator|ocl.DeviceTypeDefault) == 0 && typ != ocl.DeviceTypeAll {
		return nil, ocl.Errf(ocl.ErrDeviceNotFound, "platform has only accelerator devices")
	}
	p.client.mu.Lock()
	defer p.client.mu.Unlock()
	devs := make([]ocl.Device, 0, len(p.client.conns))
	for _, mc := range p.client.conns {
		devs = append(devs, &device{mc: mc})
	}
	return devs, nil
}

// device is one remote board.
type device struct{ mc *managerConn }

// Name implements ocl.Device.
func (d *device) Name() string { return d.mc.info.Name }

// Vendor implements ocl.Device.
func (d *device) Vendor() string { return d.mc.info.Vendor }

// Type implements ocl.Device.
func (d *device) Type() ocl.DeviceType { return ocl.DeviceTypeAccelerator }

// GlobalMemSize implements ocl.Device.
func (d *device) GlobalMemSize() int64 { return d.mc.info.GlobalMem }

// Available implements ocl.Device.
func (d *device) Available() bool { return !d.mc.isClosed() }

// Node returns the node the device's manager runs on (BlastFunction
// extension used by schedulers and tests).
func (d *device) Node() string { return d.mc.node }
