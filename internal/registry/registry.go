// Package registry implements the BlastFunction Accelerators Registry.
//
// The Registry is the master component of the paper's Section III-C. It
// registers functions and devices (the Functions Service and Devices
// Service), aggregates Device Manager performance metrics through the
// Metrics Gatherer, allocates devices to function instances with the
// paper's online allocation algorithm (Algorithm 1), and validates
// reconfiguration operations, migrating connected instances through the
// cluster orchestrator when a board must change bitstream.
package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"blastfunction/internal/flash"
)

// DeviceQuery is a function's device requirements — the paper's
// "instance.devicequery" matched during compatibility filtering.
type DeviceQuery struct {
	// Vendor restricts acceptable device vendors; empty accepts any.
	Vendor string
	// Platform restricts acceptable platforms; empty accepts any.
	Platform string
	// Accelerator is the logical accelerator the function needs (the
	// family of its bitstream, e.g. "sobel").
	Accelerator string
}

// Device is a Devices Service record: one FPGA board under a Device
// Manager.
type Device struct {
	// ID is the device identifier, unique in the cluster.
	ID string
	// Node is the node hosting the board.
	Node string
	// Vendor and Platform describe the board for compatibility checks.
	Vendor   string
	Platform string
	// ManagerAddr is the Device Manager's RPC endpoint, injected into
	// allocated instances' environments.
	ManagerAddr string
	// MetricsURL is the manager's metrics endpoint for the scraper.
	MetricsURL string
	// Bitstream is the currently configured (or expected) bitstream ID.
	Bitstream string
	// Accelerator is the logical accelerator of Bitstream.
	Accelerator string
}

// Function is a Functions Service record.
type Function struct {
	// Name is the serverless function name (e.g. "sobel-1").
	Name string
	// Query is the function's device requirements.
	Query DeviceQuery
	// Bitstream is the bitstream ID the function programs.
	Bitstream string
	// Weight is the function's fair-share weight under weighted Device
	// Manager scheduling; it travels with every instance binding
	// (BF_TENANT_WEIGHT). Zero means unweighted (managers treat it as 1).
	Weight int
}

// instanceInfo tracks one allocated function instance.
type instanceInfo struct {
	uid      string
	name     string
	function string
	node     string
}

// deviceState couples a Device record with its connected instances.
type deviceState struct {
	Device
	instances map[string]instanceInfo // by instance UID
	// unhealthy marks devices whose Device Manager stopped answering
	// metric scrapes; allocation skips them until they recover.
	unhealthy bool
	healthErr string
	// unhealthySince is when the device transitioned to unhealthy; once it
	// stays unhealthy past the controller's grace window, connected
	// instances are migrated off it.
	unhealthySince time.Time
}

// placement records where an allocated instance lives and under which
// name it authenticates; keeping the name here lets Release clean the name
// index even after the device record itself was removed.
type placement struct {
	device string
	name   string
}

// Registry is the Accelerators Registry.
type Registry struct {
	// Now supplies the clock for health-transition timestamps; tests
	// inject a fake. Defaults to time.Now.
	Now func() time.Time

	mu        sync.Mutex
	devices   map[string]*deviceState
	functions map[string]*Function
	// byAccel and byNode index device records by their configured logical
	// accelerator ("" = blank board) and hosting node, so Allocate builds
	// its candidate pool from the relevant buckets instead of scanning
	// every device in the cluster. Maintained by RegisterDevice and by
	// Allocate when it claims a board's accelerator.
	byAccel map[string]map[string]*deviceState
	byNode  map[string]map[string]*deviceState
	// byInstance maps an allocated instance UID to its placement.
	byInstance map[string]placement
	// byName maps instance names to UIDs (Device Managers authenticate
	// clients by instance name).
	byName map[string]string

	source AllocPolicy

	// flash, when set, is the planning-mode bitstream lifecycle service:
	// Allocate opens a reprogram window on it whenever a placement commits
	// a board to a new bitstream, the controller records drained sessions,
	// and ValidateReconfiguration closes the window when the client's Build
	// call finally lands. Nil disables lifecycle tracking.
	flash *flash.Service
}

// indexDevice adds a device to the accelerator and node buckets. Called
// with r.mu held.
func (r *Registry) indexDevice(ds *deviceState) {
	if r.byAccel[ds.Accelerator] == nil {
		r.byAccel[ds.Accelerator] = make(map[string]*deviceState)
	}
	r.byAccel[ds.Accelerator][ds.ID] = ds
	if r.byNode[ds.Node] == nil {
		r.byNode[ds.Node] = make(map[string]*deviceState)
	}
	r.byNode[ds.Node][ds.ID] = ds
}

// unindexDevice removes a device from the buckets matching the given
// (possibly stale) accelerator and node. Called with r.mu held.
func (r *Registry) unindexDevice(id, accel, node string) {
	if b := r.byAccel[accel]; b != nil {
		delete(b, id)
		if len(b) == 0 {
			delete(r.byAccel, accel)
		}
	}
	if b := r.byNode[node]; b != nil {
		delete(b, id)
		if len(b) == 0 {
			delete(r.byNode, node)
		}
	}
}

// AllocPolicy supplies the metrics view and the ordering/filtering
// configuration of Algorithm 1.
type AllocPolicy struct {
	// Metrics yields a device's current metrics; nil disables metric
	// filtering and ordering (fresh clusters).
	Metrics MetricsSource
	// Order lists the sort criteria, most significant first.
	Order []Criterion
	// Filters drop overloaded devices before ordering.
	Filters []Filter
	// ReconfigPenalty biases the first ordering criterion against devices
	// that would need a reprogram (neither serving the requested
	// accelerator nor promised to it by a pending flash window). A
	// to-be-flashed board's primary score is inflated by this amount before
	// quantization, so a blank board near a quantum boundary loses to an
	// already-flashed one, while a sufficiently idle blank board still
	// takes the allocation. Zero keeps pure load ordering (flashedness
	// then only breaks exact ties). The default is half a utilization
	// quantum (0.025): enough to tip near-boundary allocations onto open
	// flash windows, never enough to override the connected-count spread
	// between idle boards that the paper's experiments pin.
	ReconfigPenalty float64
}

// MetricsSource yields per-device runtime metrics.
type MetricsSource interface {
	// DeviceMetrics returns the device's current metrics; ok is false
	// when no data is available yet (the device is then treated as idle).
	DeviceMetrics(deviceID, node string) (DeviceMetrics, bool)
}

// DeviceMetrics is the metric set Algorithm 1 consumes.
type DeviceMetrics struct {
	// Utilization is the FPGA time utilization over the recent window,
	// 0..1 (can exceed 1 transiently on scrape jitter).
	Utilization float64
	// Connected is the number of connected function instances.
	Connected float64
	// QueueDepth is the central queue depth.
	QueueDepth float64
}

// value extracts a metric by name.
func (m DeviceMetrics) value(name string) float64 {
	switch name {
	case MetricUtilization:
		return m.Utilization
	case MetricConnected:
		return m.Connected
	case MetricQueueDepth:
		return m.QueueDepth
	}
	return 0
}

// Metric names usable in criteria and filters.
const (
	MetricUtilization = "utilization"
	MetricConnected   = "connected"
	MetricQueueDepth  = "queue_depth"
)

// Criterion is one sort key of the allocation ordering.
type Criterion struct {
	// Metric names the metric (Metric* constants).
	Metric string
	// Desc sorts descending when true (default ascending: less loaded
	// devices first).
	Desc bool
	// Quantum buckets values before comparing, so near-equal devices tie
	// and the accelerator-compatibility tiebreak can prefer a device that
	// avoids a reconfiguration. Zero compares exactly.
	Quantum float64
}

// Filter drops devices whose metric exceeds Max.
type Filter struct {
	Metric string
	Max    float64
}

// DefaultPolicy returns the allocation policy used in the paper's
// experiments: prefer low utilization (5 % buckets), then fewer connected
// instances, never allocate onto a device already above 95 % utilization,
// and charge half a utilization quantum against boards that would need a
// reprogram so near-boundary allocations pile onto open flash windows
// instead of flipping additional boards.
func DefaultPolicy(src MetricsSource) AllocPolicy {
	return AllocPolicy{
		Metrics: src,
		Order: []Criterion{
			{Metric: MetricUtilization, Quantum: 0.05},
			{Metric: MetricConnected},
		},
		Filters:         []Filter{{Metric: MetricUtilization, Max: 0.95}},
		ReconfigPenalty: 0.025,
	}
}

// validMetric reports whether a metric name is one Algorithm 1 can read.
func validMetric(name string) bool {
	switch name {
	case MetricUtilization, MetricConnected, MetricQueueDepth:
		return true
	}
	return false
}

// Validate rejects policies referencing unknown metric names. A typo in a
// criterion or filter would otherwise read as a silent constant zero,
// turning the ordering (or a filter) into a no-op that only shows up as
// skewed placements under load.
func (p AllocPolicy) Validate() error {
	for _, c := range p.Order {
		if !validMetric(c.Metric) {
			return fmt.Errorf("registry: unknown metric %q in ordering criterion (known: %s, %s, %s)",
				c.Metric, MetricUtilization, MetricConnected, MetricQueueDepth)
		}
	}
	for _, f := range p.Filters {
		if !validMetric(f.Metric) {
			return fmt.Errorf("registry: unknown metric %q in filter (known: %s, %s, %s)",
				f.Metric, MetricUtilization, MetricConnected, MetricQueueDepth)
		}
	}
	return nil
}

// New creates a Registry with the given allocation policy. It fails on
// policies naming unknown metrics; see AllocPolicy.Validate.
func New(policy AllocPolicy) (*Registry, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &Registry{
		Now:        time.Now,
		devices:    make(map[string]*deviceState),
		functions:  make(map[string]*Function),
		byAccel:    make(map[string]map[string]*deviceState),
		byNode:     make(map[string]map[string]*deviceState),
		byInstance: make(map[string]placement),
		byName:     make(map[string]string),
		source:     policy,
	}, nil
}

// SetFlash attaches a planning-mode bitstream lifecycle service. Call it
// before the Registry starts serving allocations; the service receives a
// flash-window job for every placement that commits a board to a new
// bitstream and is completed from ValidateReconfiguration.
func (r *Registry) SetFlash(s *flash.Service) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flash = s
}

// FlashService returns the attached bitstream lifecycle service (nil when
// lifecycle tracking is disabled).
func (r *Registry) FlashService() *flash.Service {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flash
}

// RegisterDevice adds (or updates) a Devices Service record.
// Re-registration resets the device's health: a manager announcing itself
// is a fresh incarnation, so the record is allocatable immediately rather
// than carrying its dead predecessor's unhealthy verdict until the next
// successful scrape. Connected instances are preserved across updates.
func (r *Registry) RegisterDevice(d Device) error {
	if d.ID == "" || d.Node == "" {
		return fmt.Errorf("registry: device needs ID and Node")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ds, ok := r.devices[d.ID]; ok {
		r.unindexDevice(ds.ID, ds.Accelerator, ds.Node)
		ds.Device = d
		ds.unhealthy = false
		ds.healthErr = ""
		ds.unhealthySince = time.Time{}
		r.indexDevice(ds)
		return nil
	}
	ds := &deviceState{Device: d, instances: make(map[string]instanceInfo)}
	r.devices[d.ID] = ds
	r.indexDevice(ds)
	return nil
}

// SetDeviceHealth records a device's scrape health. An unhealthy device
// is excluded from allocation until it recovers; existing placements are
// left alone (their clients notice the broken manager themselves).
func (r *Registry) SetDeviceHealth(id string, scrapeErr error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.devices[id]
	if !ok {
		return fmt.Errorf("registry: device %q not found", id)
	}
	if scrapeErr != nil {
		if !ds.unhealthy {
			ds.unhealthySince = r.Now() // transition: start the grace clock
		}
		ds.unhealthy = true
		ds.healthErr = scrapeErr.Error()
	} else {
		ds.unhealthy = false
		ds.healthErr = ""
		ds.unhealthySince = time.Time{}
	}
	return nil
}

// UnhealthyPastGrace returns the IDs of devices that have been unhealthy
// for longer than the grace window, sorted. These are the boards whose
// connected instances the controller migrates.
func (r *Registry) UnhealthyPastGrace(grace time.Duration) []string {
	cutoff := r.Now().Add(-grace)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, ds := range r.devices {
		if ds.unhealthy && !ds.unhealthySince.After(cutoff) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// DeviceHealthy reports whether a device is currently allocatable.
func (r *Registry) DeviceHealthy(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.devices[id]
	return ok && !ds.unhealthy
}

// Devices lists device records sorted by ID.
func (r *Registry) Devices() []Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Device, 0, len(r.devices))
	for _, ds := range r.devices {
		out = append(out, ds.Device)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RegisterFunction adds (or updates) a Functions Service record.
func (r *Registry) RegisterFunction(f Function) error {
	if f.Name == "" {
		return fmt.Errorf("registry: function needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fn := f
	r.functions[f.Name] = &fn
	return nil
}

// Functions lists function records sorted by name.
func (r *Registry) Functions() []Function {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Function, 0, len(r.functions))
	for _, f := range r.functions {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// InstancePlacement reports which device an instance is allocated to.
func (r *Registry) InstancePlacement(uid string) (Device, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.byInstance[uid]
	if !ok {
		return Device{}, false
	}
	ds, ok := r.devices[p.device]
	if !ok {
		return Device{}, false
	}
	return ds.Device, true
}

// ConnectedInstances returns the UIDs of instances allocated to a device,
// sorted.
func (r *Registry) ConnectedInstances(deviceID string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.devices[deviceID]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(ds.instances))
	for uid := range ds.instances {
		out = append(out, uid)
	}
	sort.Strings(out)
	return out
}

// Release removes an instance's allocation. The controller calls it on
// instance deletion events and before migrating a displaced instance; the
// DES harness uses it to model the same migrations.
func (r *Registry) Release(uid string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.byInstance[uid]
	if !ok {
		return
	}
	delete(r.byInstance, uid)
	// Guarded so a newer allocation that took over the name is left
	// alone.
	if r.byName[p.name] == uid {
		delete(r.byName, p.name)
	}
	if ds, ok := r.devices[p.device]; ok {
		delete(ds.instances, uid)
	}
}
