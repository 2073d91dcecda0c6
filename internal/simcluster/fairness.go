// Fairness experiment: the two-tenant skew workload on the REAL Device
// Manager (RPC transport, simulated board, wall-clock sleeps scaled by
// TimeScale), run under different central-queue disciplines. It is the
// live counterpart of the internal/sim scheduling ablation: the pure
// simulation predicts the fairness ordering, this experiment reproduces
// it through the full manager/remote stack.
package simcluster

import (
	"fmt"
	"sync"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/manager"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/sched"
	"blastfunction/internal/sim"
	"blastfunction/internal/stack"
)

// FairnessConfig parameterizes one fairness run.
type FairnessConfig struct {
	// Discipline is the manager's central-queue discipline ("fifo" or
	// "drr").
	Discipline string
	// Weights is the manager's static per-tenant weight table (drr).
	Weights map[string]int
	// HeavyOps and LightOps are the per-task kernel counts of the two
	// tenants; the skew is the experiment. Defaults 16 and 1.
	HeavyOps, LightOps int
	// Window is each tenant's closed-loop pipeline depth (tasks in
	// flight); it is what gives the scheduler a backlog to reorder.
	// Default 16.
	Window int
	// PayloadBytes sizes the loopback buffers (kernel device time scales
	// with it). Default 1 MiB.
	PayloadBytes int
	// TimeScale is the board's wall-seconds-per-modelled-second knob.
	// Default 0.05.
	TimeScale float64
	// Duration is the wall-clock load window. Default 1200ms.
	Duration time.Duration
}

func (c FairnessConfig) withDefaults() FairnessConfig {
	if c.HeavyOps <= 0 {
		c.HeavyOps = 16
	}
	if c.LightOps <= 0 {
		c.LightOps = 1
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 1 << 20
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 0.05
	}
	if c.Duration <= 0 {
		c.Duration = 1200 * time.Millisecond
	}
	return c
}

// TenantOutcome is one tenant's end-of-run accounting.
type TenantOutcome struct {
	// Tasks is the number of tasks the tenant executed.
	Tasks uint64
	// DeviceTime is the tenant's cumulative modelled board occupancy.
	DeviceTime time.Duration
	// Share is DeviceTime over the board total — the fairness metric.
	Share float64
	// MaxWait is the tenant's worst single queue wait.
	MaxWait time.Duration
}

// FairnessResult is the outcome of one fairness run.
type FairnessResult struct {
	Discipline string
	// Heavy and Light are the two tenants ("fn-heavy" submits HeavyOps
	// kernels per task, "fn-light" submits LightOps).
	Heavy, Light TenantOutcome
}

// Tenant names of the skew workload.
const (
	heavyTenant = "fn-heavy"
	lightTenant = "fn-light"
)

// RunFairness stands up a real Device Manager on a simulated board,
// drives the two-tenant skew workload against it over real RPC for the
// configured duration, and reports per-tenant occupancy.
func RunFairness(cfg FairnessConfig) (*FairnessResult, error) {
	cfg = cfg.withDefaults()
	node, err := stack.NewNode(stack.NodeConfig{
		Manager: manager.Config{
			Node:          "sim",
			DeviceID:      "fpga-fair",
			Scheduler:     cfg.Discipline,
			TenantWeights: cfg.Weights,
		},
		TimeScale: cfg.TimeScale,
		Listen:    "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	defer node.Close()

	stop := make(chan struct{})
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	for _, tn := range []struct {
		name string
		ops  int
	}{{heavyTenant, cfg.HeavyOps}, {lightTenant, cfg.LightOps}} {
		wg.Add(1)
		go func(name string, ops int) {
			defer wg.Done()
			if err := driveTenant(stop, node.Addr, name, ops, cfg.PayloadBytes, cfg.Window); err != nil {
				errc <- fmt.Errorf("tenant %s: %w", name, err)
			}
		}(tn.name, tn.ops)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	st := node.Manager.SchedStats()
	res := &FairnessResult{Discipline: string(st.Discipline)}
	for _, ts := range st.Tenants {
		out := TenantOutcome{
			Tasks:      ts.Popped,
			DeviceTime: ts.DeviceTime,
			Share:      ts.OccupancyShare,
			MaxWait:    ts.MaxWait,
		}
		switch ts.Tenant {
		case heavyTenant:
			res.Heavy = out
		case lightTenant:
			res.Light = out
		}
	}
	if res.Heavy.Tasks == 0 || res.Light.Tasks == 0 {
		return nil, fmt.Errorf("degenerate run: heavy=%d light=%d tasks", res.Heavy.Tasks, res.Light.Tasks)
	}
	return res, nil
}

// driveTenant runs one tenant's closed loop: tasks of `ops` loopback
// kernel launches each, `window` tasks pipelined, until stop closes.
func driveTenant(stop <-chan struct{}, addr, name string, ops, payloadBytes, window int) error {
	client, err := remote.Dial(remote.Config{
		ClientName: name,
		Managers:   []string{addr},
		Transport:  remote.TransportGRPC,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	platforms, err := client.Platforms()
	if err != nil {
		return err
	}
	devs, err := platforms[0].Devices(ocl.DeviceTypeAccelerator)
	if err != nil {
		return err
	}
	ctx, err := client.CreateContext(devs[:1])
	if err != nil {
		return err
	}
	q, err := ctx.CreateCommandQueue(devs[0], 0)
	if err != nil {
		return err
	}
	prog, err := ctx.CreateProgramWithBinary(devs[0], accel.LoopbackBitstream().Binary())
	if err != nil {
		return err
	}
	if err := prog.Build(""); err != nil {
		return err
	}
	k, err := prog.CreateKernel("copy")
	if err != nil {
		return err
	}
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, payloadBytes, nil)
	if err != nil {
		return err
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, payloadBytes, nil)
	if err != nil {
		return err
	}
	if err := k.SetArg(0, in); err != nil {
		return err
	}
	if err := k.SetArg(1, out); err != nil {
		return err
	}
	if err := k.SetArg(2, int32(payloadBytes)); err != nil {
		return err
	}
	var inflight []ocl.Event
	for {
		select {
		case <-stop:
			return q.Finish() // drain so the final accounting is settled
		default:
		}
		var last ocl.Event
		for i := 0; i < ops; i++ {
			ev, err := q.EnqueueTask(k, nil)
			if err != nil {
				return err
			}
			last = ev
		}
		if err := q.Flush(); err != nil {
			return err
		}
		inflight = append(inflight, last)
		if len(inflight) >= window {
			if err := ocl.WaitForEvents(inflight[0]); err != nil {
				return err
			}
			inflight = inflight[1:]
		}
	}
}

// FairnessAblation runs the skew workload through the pure
// discrete-event simulation, under the fifo and drr disciplines of the
// manager's own queue, and returns the light tenant's occupancy share
// under each — the prediction the live experiment must reproduce: fair
// queuing lifts the minority tenant's share, strict FIFO starves it.
//
// Each task is one job charged its op count, as the manager sets
// Item.Cost, so drr equalizes service demand, not task count; a task's
// completion re-arms the closed loop.
func FairnessAblation(heavyOps, lightOps int, opService time.Duration, window int, horizon time.Duration) (fifoLightShare, fairLightShare float64) {
	run := func(d sched.Discipline) float64 {
		eng := sim.NewEngine()
		srv, _ := eng.NewServer(d) // d is a known discipline
		busy := map[string]time.Duration{}
		var enqueueTask func(name string, ops int)
		enqueueTask = func(name string, ops int) {
			srv.Enqueue(name, int64(ops), time.Duration(ops)*opService, func(_, service time.Duration) {
				busy[name] += service
				if eng.Now() < horizon {
					enqueueTask(name, ops)
				}
			})
		}
		for i := 0; i < window; i++ {
			enqueueTask("heavy", heavyOps)
			enqueueTask("light", lightOps)
		}
		eng.Run(horizon)
		total := busy["heavy"] + busy["light"]
		if total == 0 {
			return 0
		}
		return float64(busy["light"]) / float64(total)
	}
	return run(sched.FIFO), run(sched.DRR)
}
