package simcluster

import (
	"fmt"
	"time"

	"blastfunction/internal/flash"
	"blastfunction/internal/registry"
	"blastfunction/internal/sim"
)

// ReconfigConfig parameterizes the reconfiguration-storm experiment: a
// DES of serverless churn across accelerator families, placed by the
// real Registry, contrasting Algorithm 1 without lifecycle tracking with
// Algorithm 1 plus the bitstream lifecycle service's flash windows.
type ReconfigConfig struct {
	// Boards is the cluster size; default 8.
	Boards int
	// Accels is the number of accelerator families tenants draw from;
	// default equals Boards (every family can stay resident).
	Accels int
	// Batched selects registry.DefaultPolicy with a planning-mode
	// flash.Service attached; false is the same Registry with no
	// reconfiguration penalty and no flash service.
	Batched bool
}

// The storm's fixed shape: 32 tenants are torn down and re-placed (a new
// serverless incarnation) every 5s for 6 phases; a reprogram blocks its
// board for 2s (the paper's full-region reconfiguration); requests offer
// 0.4x the cluster's capacity, so reconfiguration stalls, not queueing,
// dominate a tail.
const (
	stormTenants    = 32
	stormPhaseEvery = 5 * time.Second
	stormPhases     = 6
	stormReconfig   = 2 * time.Second
	stormLoad       = 0.4
)

func (c ReconfigConfig) withDefaults() ReconfigConfig {
	if c.Boards <= 0 {
		c.Boards = 8
	}
	if c.Accels <= 0 {
		c.Accels = c.Boards
	}
	return c
}

// ReconfigResult is the experiment outcome.
type ReconfigResult struct {
	Boards  int  `json:"boards"`
	Accels  int  `json:"accels"`
	Tenants int  `json:"tenants"`
	Phases  int  `json:"phases"`
	Batched bool `json:"batched"`

	Arrivals  int     `json:"arrivals"`
	Completed int     `json:"completed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanUtil  float64 `json:"mean_utilization"`

	// Reconfigs counts board reprograms; ReconfigSeconds is the total
	// board time they consumed. In batched mode each reprogram is one
	// flash job, and TenantsPerWindow is its requesters (the opener plus
	// the BatchedRequesters that coalesced onto it) averaged over the jobs.
	Reconfigs        int     `json:"reconfigs"`
	ReconfigSeconds  float64 `json:"reconfig_seconds"`
	TenantsPerWindow float64 `json:"tenants_per_window"`
}

// RunReconfigStorm drives the churn phases: at each phase boundary every
// tenant draws an accelerator family (deterministic), its instance is
// released, and it is placed again under a fresh UID by the real
// Registry's Allocate (Algorithm 1); an Allocate that finds no board
// fails the run. A placement that claims a blank board or needs a
// reconfiguration reprograms that board: the flash is enqueued on its
// FIFO server, and when it ends in virtual time Registry.BuildLanded
// closes the window. In the batched arm the Registry opens those windows
// on a planning-mode flash.Service, and a placement that coalesces onto a
// window already open for its board and bitstream costs no second
// reprogram. Requests flow open-loop throughout, queueing behind
// reprograms on the same board, so the arms' p99 difference is the
// storm's cost.
func RunReconfigStorm(cfg ReconfigConfig) (*ReconfigResult, error) {
	cfg = cfg.withDefaults()
	penalty := 0.0
	if cfg.Batched {
		penalty = registry.DefaultPolicy(nil).ReconfigPenalty
	}
	c, err := newSimCluster(cfg.Boards, penalty)
	if err != nil {
		return nil, err
	}
	engine := c.engine
	var fl *flash.Service
	if cfg.Batched {
		if fl, err = flash.New(flash.Config{Now: engine.Clock}); err != nil {
			return nil, err
		}
		c.SetFlash(fl)
	}
	families := make([]string, cfg.Accels)
	for a := range families {
		families[a] = fmt.Sprintf("accel-%d", a)
		if err := c.RegisterFunction(registry.Function{
			Name:      families[a],
			Query:     registry.DeviceQuery{Accelerator: families[a]},
			Bitstream: families[a] + "-bits",
		}); err != nil {
			return nil, err
		}
	}

	tenantServer := make([]*sim.Server, stormTenants) // nil until placed
	tenantAccel := make([]int, stormTenants)
	tenantUID := make([]string, stormTenants)
	var uidTenant map[string]int // this phase's instances
	var reconfigs int
	var placeErr error

	// place allocates tenant t's current instance and migrates whatever
	// the allocation displaced, as the registry controller would.
	var place func(t int) error
	place = func(t int) error {
		uid := tenantUID[t]
		alloc, err := c.Allocate(registry.AllocRequest{
			InstanceUID: uid, InstanceName: uid, Function: families[tenantAccel[t]],
		})
		if err != nil {
			return fmt.Errorf("simcluster: placing %s: %w", uid, err)
		}
		srv := c.server[alloc.Device.ID]
		tenantServer[t] = srv
		if (alloc.NeedsReconfigure || alloc.Device.Accelerator == "") &&
			(fl == nil || opensWindow(fl, alloc.Device.ID, uid)) {
			reconfigs++
			srv.Enqueue(uid, 1, stormReconfig, func(_, _ time.Duration) { c.BuildLanded(uid) })
		}
		for _, moved := range alloc.Displaced {
			c.Release(moved)
			if err := place(uidTenant[moved]); err != nil {
				return err
			}
		}
		return nil
	}

	famRng := uint64(1) ^ 0xA5A5A5A5A5A5A5A5
	for p := 0; p < stormPhases; p++ {
		p := p
		engine.At(time.Duration(p)*stormPhaseEvery, func() {
			uidTenant = make(map[string]int, stormTenants)
			for t := range tenantAccel {
				tenantAccel[t] = int(scaleRng(&famRng) * float64(cfg.Accels))
				if tenantAccel[t] >= cfg.Accels {
					tenantAccel[t] = cfg.Accels - 1
				}
				if tenantUID[t] != "" {
					c.Release(tenantUID[t])
				}
				tenantUID[t] = fmt.Sprintf("t%03d-p%d", t, p)
				uidTenant[tenantUID[t]] = t
			}
			for t := range tenantUID {
				if placeErr = place(t); placeErr != nil {
					return
				}
			}
		})
	}

	end := stormPhases * stormPhaseEvery
	warmup := stormPhaseEvery // the cold first phase flashes in both arms
	perTenantRate := stormLoad * (float64(cfg.Boards) / serviceTime.Seconds()) / stormTenants
	meanGap := time.Duration(float64(time.Second) / perTenantRate)

	var arrivals, completed int
	var latencies []time.Duration
	rngs := make([]uint64, stormTenants)
	for t := range rngs {
		rngs[t] = tenantRng(t)
	}
	var arrive func(t int)
	arrive = func(t int) {
		now := engine.Now()
		measured := now >= warmup && now < end
		if srv := tenantServer[t]; srv != nil {
			if measured {
				arrivals++
			}
			srv.Enqueue(tenantUID[t], 1, serviceTime, func(wait, service time.Duration) {
				if measured {
					completed++
					latencies = append(latencies, wait+service)
				}
			})
		}
		gap := time.Duration((0.5 + scaleRng(&rngs[t])) * float64(meanGap))
		if next := now + gap; next < end {
			engine.After(gap, func() { arrive(t) })
		}
	}
	for t := 0; t < stormTenants; t++ {
		// Offset past the phase-0 placement so every arrival has a board.
		engine.At(time.Duration(1+scaleRng(&rngs[t])*float64(meanGap-1)), func(t int) func() {
			return func() { arrive(t) }
		}(t))
	}
	for placeErr == nil && engine.Step() {
	}
	if placeErr != nil {
		return nil, placeErr
	}

	res := &ReconfigResult{
		Boards:  cfg.Boards,
		Accels:  cfg.Accels,
		Tenants: stormTenants,
		Phases:  stormPhases,
		Batched: cfg.Batched,

		Arrivals:  arrivals,
		Completed: completed,
		MeanUtil:  c.meanUtil(),

		Reconfigs:       reconfigs,
		ReconfigSeconds: float64(reconfigs) * stormReconfig.Seconds(),
	}
	if fl != nil {
		jobs := append(fl.History(""), fl.Jobs()...)
		requesters := 0
		for _, j := range jobs {
			requesters += 1 + len(j.BatchedRequesters)
		}
		if len(jobs) > 0 {
			res.TenantsPerWindow = float64(requesters) / float64(len(jobs))
		}
	}
	res.P50Ms, res.P99Ms = percentilesMs(latencies)
	return res, nil
}

// opensWindow reports whether requester's allocation opened a new flash
// window on board rather than coalescing onto one already open there.
func opensWindow(fl *flash.Service, board, requester string) bool {
	for _, j := range fl.Jobs() {
		if j.Board == board && j.Requester == requester {
			return true
		}
	}
	return false
}
