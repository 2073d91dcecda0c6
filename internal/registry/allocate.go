package registry

import (
	"fmt"
	"math"
	"sort"

	"blastfunction/internal/flash"
)

// ErrDeviceNotFound is raised when Algorithm 1 exhausts the candidate list
// — the paper's `raise error "device not found"`.
var ErrDeviceNotFound = fmt.Errorf("registry: device not found")

// AllocRequest describes the function instance to match, the input of
// Algorithm 1.
type AllocRequest struct {
	// InstanceUID and InstanceName identify the instance.
	InstanceUID  string
	InstanceName string
	// Function names the Functions Service record carrying the device
	// query and bitstream.
	Function string
	// Node, when non-empty, is a pre-bound node: only that node's devices
	// qualify, and the final `instance.node` assignment is skipped.
	Node string
}

// Allocation is Algorithm 1's output.
type Allocation struct {
	// Device is the chosen device.
	Device Device
	// Node is the node the instance must run on.
	Node string
	// NeedsReconfigure is true when the chosen device's current bitstream
	// does not serve the function's accelerator; the Registry has already
	// validated that the device's existing workloads are redistributable.
	NeedsReconfigure bool
	// Displaced lists instance UIDs that must migrate off the chosen
	// device before it is reconfigured.
	Displaced []string
	// Weight is the function's fair-share weight, forwarded into the
	// instance environment so the Remote Library declares it at Hello.
	Weight int
}

// candidate is a device under evaluation, with its metrics snapshot.
type candidate struct {
	ds         *deviceState
	metrics    DeviceMetrics
	hasMetrics bool
	compatible bool // accelerator-compatible: no reconfiguration needed
	// flashed means the board's recorded accelerator serves the query:
	// allocating here costs no reprogram. Allocate records the accelerator
	// when it places, so a board an earlier allocation claimed counts
	// before its Build lands. A blank board is compatible but not flashed.
	flashed bool
}

// Allocate runs the paper's Algorithm 1 and records the resulting
// placement. It must be called once per created instance (the watch loop
// does); the returned Allocation tells the caller how to patch the
// instance and whether a reconfiguration (with migrations) is pending.
func (r *Registry) Allocate(req AllocRequest) (*Allocation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	fn, ok := r.functions[req.Function]
	if !ok {
		return nil, fmt.Errorf("registry: function %q not registered", req.Function)
	}

	// Lines 2-4: filterby_compatibility, filterby_metrics,
	// orderby_metrics_and_acc — but built from the accelerator/node index
	// instead of a full r.devices scan. The primary pool holds only
	// accelerator-compatible devices (the requested family's bucket plus
	// blank boards, or the pinned node's bucket), so at hundreds of
	// boards an allocation touches the handful that can actually serve
	// the function.
	cands := r.candidates(r.compatiblePool(fn.Query, req.Node), fn.Query)
	cands = filterByMetrics(cands, r.source.Filters)
	orderCandidates(cands, r.source.Order)

	// Lines 5-12: pick the best-ordered compatible device. Every
	// primary-pool candidate is compatible, so the head of the ordered
	// list wins. Only "when compatible accelerators are missing" (the
	// paper's wording) does the algorithm fall back to the full candidate
	// set, scanning for a device whose current workloads can be
	// redistributed to other boards; eager displacement would let two
	// accelerator families evict each other indefinitely.
	var chosen *candidate
	var displaced []string
	if len(cands) > 0 {
		chosen = cands[0]
	}
	if chosen == nil {
		all := r.candidates(r.fullPool(fn.Query, req.Node), fn.Query)
		all = filterByMetrics(all, r.source.Filters)
		orderCandidates(all, r.source.Order)
		for _, c := range all {
			if moved, ok := r.redistributable(c.ds); ok {
				chosen = c
				displaced = moved
				break
			}
		}
		if chosen == nil {
			return nil, fmt.Errorf("%w: function %q needs accelerator %q (%d candidates)",
				ErrDeviceNotFound, fn.Name, fn.Query.Accelerator, len(all))
		}
	}

	// Lines 13-15: bind instance to the chosen device (and its node when
	// the instance was unscheduled).
	alloc := &Allocation{
		Device:           chosen.ds.Device,
		Node:             req.Node,
		NeedsReconfigure: !chosen.compatible,
		Displaced:        displaced,
		Weight:           fn.Weight,
	}
	if alloc.Node == "" {
		alloc.Node = chosen.ds.Node
	}
	r.byInstance[req.InstanceUID] = placement{device: chosen.ds.ID, name: req.InstanceName}
	r.byName[req.InstanceName] = req.InstanceUID
	chosen.ds.instances[req.InstanceUID] = instanceInfo{
		uid:      req.InstanceUID,
		name:     req.InstanceName,
		function: req.Function,
		node:     alloc.Node,
	}
	if !chosen.compatible || chosen.ds.Accelerator == "" {
		// Record the expected bitstream immediately — both for devices
		// that must reconfigure and for fresh, unconfigured ones the
		// client is about to program. Later allocations then see the
		// device's future configuration instead of treating it as a blank
		// board, and the reconfiguration gate can validate the client's
		// Build call. The device moves to its new accelerator bucket so
		// the index keeps matching the record.
		old := chosen.ds.Accelerator
		chosen.ds.Bitstream = fn.Bitstream
		chosen.ds.Accelerator = fn.Query.Accelerator
		if old != chosen.ds.Accelerator {
			if b := r.byAccel[old]; b != nil {
				delete(b, chosen.ds.ID)
				if len(b) == 0 {
					delete(r.byAccel, old)
				}
			}
			if r.byAccel[chosen.ds.Accelerator] == nil {
				r.byAccel[chosen.ds.Accelerator] = make(map[string]*deviceState)
			}
			r.byAccel[chosen.ds.Accelerator][chosen.ds.ID] = chosen.ds
		}
		if r.flash != nil && fn.Bitstream != "" {
			// Open a planning-mode flash window for the board's reprogram.
			// Later allocations wanting the same accelerator land on this
			// board through the eager record above and ride the same window;
			// the Device Manager's Build call closes it via
			// ValidateReconfiguration. Submit never calls back into the
			// Registry, so taking the flash lock under r.mu is safe.
			r.flash.Submit(flash.Request{
				Board:       chosen.ds.ID,
				Bitstream:   fn.Bitstream,
				Accelerator: fn.Query.Accelerator,
				Requester:   req.InstanceName,
				Priority:    fn.Weight,
			})
		}
	}
	return alloc, nil
}

// compatiblePool collects the healthy devices that can serve the query
// without reconfiguration, drawn from the index buckets: a pinned node's
// bucket, or the query's accelerator family plus blank boards. An empty
// query accelerator matches every configured board, so that case walks
// all devices (it cannot narrow by family). Called with r.mu held.
func (r *Registry) compatiblePool(q DeviceQuery, node string) []*deviceState {
	var pool []*deviceState
	keep := func(ds *deviceState) {
		if !ds.unhealthy && queryCompatible(ds.Device, q) && acceleratorCompatible(ds.Device, q) {
			pool = append(pool, ds)
		}
	}
	switch {
	case node != "":
		for _, ds := range r.byNode[node] {
			keep(ds)
		}
	case q.Accelerator == "":
		for _, ds := range r.devices {
			keep(ds)
		}
	default:
		for _, ds := range r.byAccel[q.Accelerator] {
			keep(ds)
		}
		for _, ds := range r.byAccel[""] {
			keep(ds)
		}
	}
	return pool
}

// fullPool collects every healthy vendor/platform/node-compatible device
// regardless of its configured accelerator — the reconfiguration
// fallback's candidate set. Called with r.mu held.
func (r *Registry) fullPool(q DeviceQuery, node string) []*deviceState {
	var pool []*deviceState
	for _, ds := range r.devices {
		if ds.unhealthy || !queryCompatible(ds.Device, q) {
			continue
		}
		if node != "" && ds.Node != node {
			continue
		}
		pool = append(pool, ds)
	}
	return pool
}

// candidates wraps a device pool with its metrics snapshots and
// accelerator-compatibility flags. Called with r.mu held; note the
// MetricsSource call happens under the lock, which is why the Gatherer
// caches per scrape generation.
func (r *Registry) candidates(pool []*deviceState, q DeviceQuery) []*candidate {
	cands := make([]*candidate, 0, len(pool))
	for _, ds := range pool {
		c := &candidate{ds: ds, compatible: acceleratorCompatible(ds.Device, q)}
		c.flashed = c.compatible && ds.Accelerator != ""
		if r.source.Metrics != nil {
			c.metrics, c.hasMetrics = r.source.Metrics.DeviceMetrics(ds.ID, ds.Node)
		}
		// The connected-instance count is Devices Service state, not a
		// scraped metric: the Registry itself records every allocation, so
		// placement decisions see their own effects immediately instead of
		// racing the next metrics scrape.
		if own := float64(len(ds.instances)); own > c.metrics.Connected {
			c.metrics.Connected = own
		}
		cands = append(cands, c)
	}
	return cands
}

// queryCompatible implements the vendor/platform part of
// filterby_compatibility.
func queryCompatible(d Device, q DeviceQuery) bool {
	if q.Vendor != "" && q.Vendor != d.Vendor {
		return false
	}
	if q.Platform != "" && q.Platform != d.Platform {
		return false
	}
	return true
}

// acceleratorCompatible reports whether the device already serves the
// requested accelerator (a fresh, unconfigured device counts as
// compatible: programming an idle board displaces nobody).
func acceleratorCompatible(d Device, q DeviceQuery) bool {
	if d.Accelerator == "" {
		return true
	}
	return q.Accelerator == "" || d.Accelerator == q.Accelerator
}

// filterByMetrics implements filterby_metrics. Devices without metric data
// pass every filter (treated as idle).
func filterByMetrics(cands []*candidate, filters []Filter) []*candidate {
	if len(filters) == 0 {
		return cands
	}
	out := cands[:0]
	for _, c := range cands {
		ok := true
		if c.hasMetrics {
			for _, f := range filters {
				if c.metrics.value(f.Metric) > f.Max {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// orderCandidates implements orderby_metrics_and_acc: criteria in
// priority order, with flashedness (already carrying the right
// accelerator) and then accelerator compatibility as tiebreaks, so that
// among equally loaded devices the one avoiding a reconfiguration wins;
// device ID breaks the final tie for determinism.
func orderCandidates(cands []*candidate, order []Criterion) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		for _, crit := range order {
			av := quantize(a.metrics.value(crit.Metric), crit.Quantum)
			bv := quantize(b.metrics.value(crit.Metric), crit.Quantum)
			if av != bv {
				if crit.Desc {
					return av > bv
				}
				return av < bv
			}
		}
		if a.flashed != b.flashed {
			return a.flashed
		}
		if a.compatible != b.compatible {
			return a.compatible
		}
		return a.ds.ID < b.ds.ID
	})
}

func quantize(v, quantum float64) float64 {
	if quantum <= 0 {
		return v
	}
	return math.Floor(v/quantum) * quantum
}

// redistributable implements the paper's not_redistributable check (lines
// 6-8, inverted): every instance currently connected to the device must
// have at least one other device that is compatible with its function's
// query and already serves its accelerator. It returns the UIDs to
// migrate. Called with r.mu held.
func (r *Registry) redistributable(ds *deviceState) ([]string, bool) {
	var moved []string
	for uid, info := range ds.instances {
		fn, ok := r.functions[info.function]
		if !ok {
			return nil, false
		}
		found := false
		for _, other := range r.devices {
			if other.ID == ds.ID {
				continue
			}
			if queryCompatible(other.Device, fn.Query) &&
				other.Accelerator == fn.Query.Accelerator {
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
		moved = append(moved, uid)
	}
	sort.Strings(moved)
	return moved, true
}

// ValidateReconfiguration is the Device Managers' reconfiguration gate
// (paper: the Registry "validates reconfiguration operations"). The
// requesting client (a function instance, identified by name) may program
// bitID only if it is allocated to the device and the device's expected
// bitstream matches; the common case is the Build call that follows the
// allocation above.
func (r *Registry) ValidateReconfiguration(deviceID, clientName, bitID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.devices[deviceID]
	if !ok {
		return fmt.Errorf("registry: unknown device %q", deviceID)
	}
	uid, ok := r.byName[clientName]
	if !ok {
		return fmt.Errorf("registry: client %q has no allocation", clientName)
	}
	if r.byInstance[uid].device != deviceID {
		return fmt.Errorf("registry: client %q is not allocated to device %q", clientName, deviceID)
	}
	if ds.Bitstream != "" && ds.Bitstream != bitID {
		return fmt.Errorf("registry: device %q expects bitstream %q, client wants %q",
			deviceID, ds.Bitstream, bitID)
	}
	ds.Bitstream = bitID
	if r.flash != nil {
		// The client's Build call is going through: the board's flash window
		// is now being served by the Device Manager. Close it so the history
		// records the queue-to-validate latency and any drained sessions.
		r.flash.Complete(deviceID, bitID, 0, nil)
	}
	return nil
}

// BuildLanded closes the flash window an instance's allocation opened, if
// any. It is the in-process counterpart of ValidateReconfiguration for
// deployments where the gateway — not a Device Manager calling the
// reconfiguration gate — observes the build completing: the gateway's
// OnReady hook calls it once the function's factory returns a live
// endpoint, which implies the program was built on the placed board.
// Unknown instances and boards without a recorded bitstream are ignored.
func (r *Registry) BuildLanded(instanceName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flash == nil {
		return
	}
	uid, ok := r.byName[instanceName]
	if !ok {
		return
	}
	p, ok := r.byInstance[uid]
	if !ok {
		return
	}
	ds, ok := r.devices[p.device]
	if !ok || ds.Bitstream == "" {
		return
	}
	r.flash.Complete(p.device, ds.Bitstream, 0, nil)
}
