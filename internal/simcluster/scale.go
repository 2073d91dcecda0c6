package simcluster

import (
	"fmt"
	"sort"
	"time"

	"blastfunction/internal/gateway"
	"blastfunction/internal/metrics"
	"blastfunction/internal/registry"
	"blastfunction/internal/sched"
	"blastfunction/internal/sim"
)

// ScaleConfig parameterizes the cluster-scale front-door experiment: a
// DES of hundreds of boards and hundreds of tenants driving the gateway's
// own admission and routing code near saturation, with the placement
// pass run through the real Registry/Gatherer/TSDB stack so the
// experiment also measures Algorithm 1's cost at scale.
type ScaleConfig struct {
	// Boards is the cluster size (simulated FPGA boards, one per node);
	// default 100.
	Boards int
	// Tenants is the number of independent request sources; default 500.
	Tenants int
	// Admission puts the gateway's per-tenant token buckets
	// (gateway.Admission) in front of the router.
	Admission bool
	// Router names the gateway routing policy over each tenant's
	// replicas: any name gateway.NewRouter accepts; empty is round-robin.
	Router string
	// Warmup is discarded before measurement; default 2s.
	Warmup time.Duration
	// Measure is the measured window; default 10s.
	Measure time.Duration
}

// The scale experiment's fixed shape: every tenant's function has two
// replicas, each placed by the real Allocate; tenants together offer
// 1.05x the cluster's capacity, 5% past saturation, the regime where the
// front door earns its keep; admission grants each tenant 90% of its fair
// capacity share with a burst of 5.
const (
	scaleReplicas   = 2
	scaleLoad       = 1.05
	scaleAdmitShare = 0.9
	scaleAdmitBurst = 5
)

// serviceTime is the board time one request takes in both cluster-scale
// experiments.
const serviceTime = 8 * time.Millisecond

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Boards <= 0 {
		c.Boards = 100
	}
	if c.Tenants <= 0 {
		c.Tenants = 500
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 10 * time.Second
	}
	return c
}

// ScaleResult is the experiment outcome.
type ScaleResult struct {
	Boards   int     `json:"boards"`
	Tenants  int     `json:"tenants"`
	Replicas int     `json:"replicas_per_tenant"`
	Router   string  `json:"router"`
	Admitted bool    `json:"admission"`
	Load     float64 `json:"offered_load"`

	Arrivals      int     `json:"arrivals"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
	RejectionRate float64 `json:"rejection_rate"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanUtil      float64 `json:"mean_utilization"`

	// Placement-pass cost: the real Allocate run once per replica over
	// the real Gatherer/TSDB.
	Allocations       int     `json:"allocations"`
	GathererComputes  uint64  `json:"gatherer_computes"`
	GathererCacheHits uint64  `json:"gatherer_cache_hits"`
	AllocWallMs       float64 `json:"alloc_wall_ms"`
}

// scaleRng is the deterministic LCG jitter stream used across the DES
// harness (same constants as experiment.go's generators).
func scaleRng(state *uint64) float64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return float64(*state>>11) / float64(1<<53)
}

// tenantRng seeds tenant t's arrival jitter stream.
func tenantRng(t int) uint64 { return 1 + uint64(t)*0x9E3779B97F4A7C15 }

// simCluster is Boards simulated boards ("board-000" on "node-000", ...),
// each a server running the manager's default fifo queue on one engine,
// registered with a real Registry whose Algorithm 1 reads metrics through
// a real Gatherer. The TSDB holds two scrape generations (so Rate() has a
// window) of equal busy-seconds: every board looks equally, lightly
// utilized.
type simCluster struct {
	*registry.Registry
	gatherer *registry.Gatherer
	engine   *sim.Engine
	servers  []*sim.Server
	server   map[string]*sim.Server // by device ID
}

// newSimCluster builds the cluster under registry.DefaultPolicy with the
// given reconfiguration penalty.
func newSimCluster(boards int, reconfigPenalty float64) (*simCluster, error) {
	db := metrics.NewTSDB(15 * time.Minute)
	gatherer := registry.NewGatherer(db)
	base := time.Unix(0, 0)
	gatherer.Now = func() time.Time { return base.Add(20 * time.Second) }
	policy := registry.DefaultPolicy(gatherer)
	policy.ReconfigPenalty = reconfigPenalty
	reg, err := registry.New(policy)
	if err != nil {
		return nil, err
	}
	c := &simCluster{Registry: reg, gatherer: gatherer, engine: sim.NewEngine(), server: make(map[string]*sim.Server, boards)}
	var samples0, samples1 []metrics.Sample
	for i := 0; i < boards; i++ {
		id := fmt.Sprintf("board-%03d", i)
		node := fmt.Sprintf("node-%03d", i)
		if err := reg.RegisterDevice(registry.Device{ID: id, Node: node}); err != nil {
			return nil, err
		}
		srv, err := c.engine.NewServer(sched.FIFO)
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.server[id] = srv
		lbl := metrics.Labels{"device": id, "node": node}
		samples0 = append(samples0, metrics.Sample{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 0})
		samples1 = append(samples1, metrics.Sample{Name: "bf_device_busy_seconds_total", Labels: lbl, Value: 0.1})
	}
	db.Append(base, samples0)
	db.Append(base.Add(10*time.Second), samples1)
	return c, nil
}

// meanUtil is the boards' mean busy fraction over the engine's run.
func (c *simCluster) meanUtil() float64 {
	elapsed := c.engine.Now()
	if elapsed <= 0 {
		return 0
	}
	var busy time.Duration
	for _, s := range c.servers {
		busy += s.BusyTime()
	}
	return busy.Seconds() / (float64(len(c.servers)) * elapsed.Seconds())
}

// percentilesMs returns the p50 and p99 of latencies in milliseconds
// (zero when there are none); it sorts latencies in place.
func percentilesMs(latencies []time.Duration) (p50, p99 float64) {
	if len(latencies) == 0 {
		return 0, 0
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	at := func(pct int) float64 {
		return float64(latencies[(len(latencies)-1)*pct/100].Microseconds()) / 1000
	}
	return at(50), at(99)
}

// replica is one placed function instance as the gateway tracks it.
type replica struct {
	server   *sim.Server
	inflight int64
}

// replicas is one tenant's replicas as the gateway's routers see them.
type replicas []replica

func (r replicas) Len() int             { return len(r) }
func (r replicas) Inflight(i int) int64 { return r[i].inflight }

// RunScale places Tenants×2 function instances on Boards simulated boards
// through the real Registry (Algorithm 1 over a Gatherer-backed TSDB),
// then drives open-loop arrivals through the gateway's own front door —
// gateway.Admission's per-tenant token buckets on the virtual clock, then
// the gateway.Router named by Router over each tenant's replicas — into
// per-board FIFO servers, and reports tail latency, rejection rate and
// the placement pass's metric-query cost.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	router, err := gateway.NewRouter(cfg.Router)
	if err != nil {
		return nil, err
	}
	// The scale experiment isolates the front door (admission + routing):
	// the reconfiguration penalty is zeroed so placements spread by load
	// exactly as in the paper's Algorithm 1, instead of piling onto
	// already-flashed boards. The reconfig-storm experiment studies that
	// tradeoff separately.
	c, err := newSimCluster(cfg.Boards, 0)
	if err != nil {
		return nil, err
	}

	// One accelerator family: every tenant's function claims blank boards
	// on first touch and shares them afterwards.
	type tenantState struct {
		name string
		rng  uint64
		reps replicas
		rot  gateway.Rotation
	}
	tenants := make([]*tenantState, cfg.Tenants)
	allocStart := time.Now()
	for t := range tenants {
		ts := &tenantState{name: fmt.Sprintf("tenant-%04d", t), rng: tenantRng(t)}
		tenants[t] = ts
		if err := c.RegisterFunction(registry.Function{
			Name:      ts.name,
			Query:     registry.DeviceQuery{Accelerator: "bench"},
			Bitstream: "bench-bits",
		}); err != nil {
			return nil, err
		}
		for rep := 0; rep < scaleReplicas; rep++ {
			uid := fmt.Sprintf("%s-r%d", ts.name, rep)
			alloc, err := c.Allocate(registry.AllocRequest{
				InstanceUID: uid, InstanceName: uid, Function: ts.name,
			})
			if err != nil {
				return nil, fmt.Errorf("placing %s: %w", uid, err)
			}
			ts.reps = append(ts.reps, replica{server: c.server[alloc.Device.ID]})
		}
	}
	allocWall := time.Since(allocStart)
	gstats := c.gatherer.Stats()

	engine := c.engine
	capacity := float64(cfg.Boards) / serviceTime.Seconds()
	var adm *gateway.Admission
	if cfg.Admission {
		adm = gateway.NewAdmission(gateway.Budget{
			Rate: scaleAdmitShare * capacity / float64(cfg.Tenants), Burst: scaleAdmitBurst})
		base := time.Unix(0, 0)
		adm.Now = func() time.Time { return base.Add(engine.Now()) }
	}

	end := cfg.Warmup + cfg.Measure
	meanGap := time.Duration(float64(time.Second) / (scaleLoad * capacity / float64(cfg.Tenants)))

	var arrivals, completed, rejected int
	var latencies []time.Duration

	var arrive func(t int)
	arrive = func(t int) {
		ts := tenants[t]
		now := engine.Now()
		measured := now >= cfg.Warmup && now < end

		admitted := true
		if adm != nil {
			admitted, _ = adm.Admit(ts.name)
		}
		if measured {
			arrivals++
			if !admitted {
				rejected++
			}
		}
		if admitted {
			rep := &ts.reps[router.Pick(ts.reps, &ts.rot)]
			rep.inflight++
			rep.server.Enqueue(ts.name, 1, serviceTime, func(wait, service time.Duration) {
				rep.inflight--
				if measured {
					completed++
					latencies = append(latencies, wait+service)
				}
			})
		}
		// Jittered open-loop arrivals, mean gap preserved.
		gap := time.Duration((0.5 + scaleRng(&ts.rng)) * float64(meanGap))
		if next := now + gap; next < end {
			engine.After(gap, func() { arrive(t) })
		}
	}

	for t := 0; t < cfg.Tenants; t++ {
		// Deterministic phase offsets spread the tenants over the first gap.
		ts := tenants[t]
		engine.At(time.Duration(scaleRng(&ts.rng)*float64(meanGap)), func(t int) func() {
			return func() { arrive(t) }
		}(t))
	}
	// Drain completely so every measured arrival's completion is counted
	// (arrivals stop scheduling at end, so the queue empties).
	for engine.Step() {
	}

	res := &ScaleResult{
		Boards:   cfg.Boards,
		Tenants:  cfg.Tenants,
		Replicas: scaleReplicas,
		Router:   router.Name(),
		Admitted: cfg.Admission,
		Load:     scaleLoad,

		Arrivals:  arrivals,
		Completed: completed,
		Rejected:  rejected,
		MeanUtil:  c.meanUtil(),

		Allocations:       cfg.Tenants * scaleReplicas,
		GathererComputes:  gstats.Computes,
		GathererCacheHits: gstats.CacheHits,
		AllocWallMs:       float64(allocWall.Microseconds()) / 1000,
	}
	if arrivals > 0 {
		res.RejectionRate = float64(rejected) / float64(arrivals)
	}
	res.P50Ms, res.P99Ms = percentilesMs(latencies)
	return res, nil
}
