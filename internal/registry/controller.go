package registry

import (
	"context"
	"strconv"
	"sync"
	"time"

	"blastfunction/internal/cluster"
	"blastfunction/internal/logx"
)

// Environment variables the Registry injects into allocated instances —
// the paper's "patches the notified operation (e.g. adds environment
// variables, volumes for shared memory and forces the host allocation)".
const (
	// EnvManagerAddr is the Device Manager RPC endpoint the instance's
	// Remote OpenCL Library must dial.
	EnvManagerAddr = "BF_MANAGER_ADDR"
	// EnvDeviceID is the allocated device's identifier.
	EnvDeviceID = "BF_DEVICE_ID"
	// EnvNode is the node the instance was placed on.
	EnvNode = "BF_NODE"
	// EnvWeight is the function's fair-share weight; the instance's Remote
	// OpenCL Library declares it to Device Managers at Hello, where
	// weighted scheduling disciplines use it. Absent when unweighted.
	EnvWeight = "BF_TENANT_WEIGHT"
)

// ShmVolume is the shared-memory volume mounted into allocated instances.
const ShmVolume = "/dev/shm"

// Controller connects the Registry to the cluster orchestrator: it
// intercepts instance creation, runs the allocation algorithm, patches the
// instance, and performs migrations when a device needs reconfiguration.
type Controller struct {
	reg *Registry
	cl  *cluster.Cluster
	// Log receives allocation and migration events as structured events;
	// defaults to logx.Default("registry").
	Log *logx.Logger
	// Grace is how long a device may stay unhealthy before its connected
	// instances are migrated to other boards. Zero disables the sweep:
	// transient scrape hiccups then only exclude the device from new
	// allocations. Set before Run.
	Grace time.Duration

	// sweepMu serializes sweeps so overlapping ticks cannot migrate the
	// same instance twice.
	sweepMu sync.Mutex
}

// NewController creates a controller for the registry and cluster.
func NewController(reg *Registry, cl *cluster.Cluster) *Controller {
	return &Controller{
		reg: reg,
		cl:  cl,
		Log: logx.Default("registry"),
	}
}

// Run consumes cluster events until ctx is cancelled. It processes the
// informer's initial sync first, so a controller started late adopts
// existing instances.
func (c *Controller) Run(ctx context.Context) {
	events, cancel := c.cl.Watch(64)
	defer cancel()
	var sweep <-chan time.Time
	if c.Grace > 0 {
		// A quarter of the grace window bounds the detection latency well
		// below the window itself.
		tick := time.NewTicker(c.Grace / 4)
		defer tick.Stop()
		sweep = tick.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-sweep:
			// Off the event loop: migrations emit Added/Deleted events back
			// into our own watch channel, and a sweep blocking on a full
			// channel it is supposed to drain would deadlock.
			go c.SweepUnhealthy()
		case ev, ok := <-events:
			if !ok {
				return
			}
			c.handle(ev)
		}
	}
}

// SweepUnhealthy migrates every instance connected to a device that has
// been unhealthy past the grace window. Migration is create-before-delete:
// the orchestrator spawns the replacement (which re-enters the allocation
// path as a fresh Pending instance and lands on a healthy board — the
// candidate filter skips unhealthy devices) before the stranded instance
// is deleted, so capacity never dips during recovery. Safe to call
// directly from tests and operator endpoints.
func (c *Controller) SweepUnhealthy() {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	for _, devID := range c.reg.UnhealthyPastGrace(c.Grace) {
		for _, uid := range c.reg.ConnectedInstances(devID) {
			if _, err := c.cl.ReplaceInstance(uid); err != nil {
				c.Log.Error("registry: migration off unhealthy device failed",
					"instance", uid, "device", devID, "err", err)
				continue
			}
			// Drop the placement now instead of waiting for the Deleted
			// event, so a sweep racing the watch loop cannot migrate the
			// instance a second time.
			c.reg.Release(uid)
			c.Log.Info("registry: migrated instance off unhealthy device",
				"instance", uid, "device", devID)
		}
	}
}

// handle processes one cluster event.
func (c *Controller) handle(ev cluster.Event) {
	switch ev.Type {
	case cluster.Added:
		if ev.Instance.Phase == cluster.Pending {
			c.allocate(ev.Instance)
		}
	case cluster.Deleted:
		c.reg.Release(ev.Instance.UID)
	}
}

// allocate runs Algorithm 1 for a pending instance and patches it.
func (c *Controller) allocate(in cluster.Instance) {
	alloc, err := c.reg.Allocate(AllocRequest{
		InstanceUID:  in.UID,
		InstanceName: in.Name,
		Function:     in.Function,
		Node:         in.Node,
	})
	if err != nil {
		c.Log.Warn("registry: allocation failed",
			"instance", in.Name, "function", in.Function, "err", err)
		return
	}

	// Migrate displaced instances first (create-before-delete): their
	// replacements re-enter this loop as fresh Pending instances and are
	// re-allocated onto still-compatible devices.
	for _, uid := range alloc.Displaced {
		c.reg.Release(uid)
		if _, err := c.cl.ReplaceInstance(uid); err != nil {
			c.Log.Error("registry: migration off device failed",
				"instance", uid, "device", alloc.Device.ID, "err", err)
		}
	}
	if f := c.reg.FlashService(); f != nil && len(alloc.Displaced) > 0 {
		// Attribute the drained sessions to the board's open flash window so
		// the lifecycle history shows what each reprogram cost the cluster.
		f.RecordDrain(alloc.Device.ID, len(alloc.Displaced))
	}

	node := alloc.Node
	env := map[string]string{
		EnvManagerAddr: alloc.Device.ManagerAddr,
		EnvDeviceID:    alloc.Device.ID,
		EnvNode:        node,
	}
	if alloc.Weight > 0 {
		env[EnvWeight] = strconv.Itoa(alloc.Weight)
	}
	_, err = c.cl.PatchInstance(in.UID, cluster.Patch{
		Env:        env,
		AddVolumes: []string{ShmVolume},
		Node:       &node,
	})
	if err != nil {
		c.Log.Error("registry: instance patch failed", "instance", in.Name, "err", err)
		c.reg.Release(in.UID)
	}
}
