package blastfunction

// Live-vs-DES consistency: the discrete-event experiments are only valid
// evidence if they agree with the live system where both can run. This
// test executes the same tiny scenario twice — once on the real stack
// (TCP + Device Manager + board with faithful TimeScale=1 sleeps) and once
// on the discrete-event engine — and requires the FPGA time utilizations
// to agree.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"blastfunction/internal/fpga"
	"blastfunction/internal/manager"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/sched"
	"blastfunction/internal/sim"
	"blastfunction/internal/stack"
)

// tickKernelTime is the synthetic kernel duration: long enough that RPC
// overhead (~100us) is noise, short enough for a fast test.
const tickKernelTime = 5 * time.Millisecond

const (
	consistencyTenants = 2
	consistencyRate    = 20.0 // rq/s per tenant
	consistencyRun     = 2 * time.Second
)

func tickCatalog() *fpga.Catalog {
	return fpga.NewCatalog(&fpga.Bitstream{
		ID:          "tick",
		Accelerator: "tick",
		Kernels: []fpga.KernelSpec{{
			Name:    "tick",
			NumArgs: 0,
			Model:   func([]ocl.Arg, []int) time.Duration { return tickKernelTime },
		}},
	})
}

// runLive drives the real stack and returns the measured utilization.
func runLive(t *testing.T) float64 {
	t.Helper()
	node, err := stack.NewNode(stack.NodeConfig{
		Manager:   manager.Config{Node: "live", DeviceID: "tick0"},
		TimeScale: 1.0, // faithful: modelled time = wall time
		Catalog:   tickCatalog(),
		Listen:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	binary := (&fpga.Bitstream{ID: "tick"}).Binary()

	// Setup phase: every tenant connects, builds (the first Build pays the
	// faithful 2s reconfiguration) and creates its queue before the
	// measured window opens.
	type tenantState struct {
		client *remote.Client
		q      ocl.CommandQueue
		k      ocl.Kernel
	}
	tenants := make([]tenantState, consistencyTenants)
	for i := range tenants {
		client, err := remote.Dial(remote.Config{
			ClientName: "live-tenant",
			Managers:   []string{node.Addr},
			Transport:  remote.TransportGRPC,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ps, _ := client.Platforms()
		devs, _ := ps[0].Devices(ocl.DeviceTypeAll)
		ctx, err := client.CreateContext(devs[:1])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ctx.CreateProgramWithBinary(devs[0], binary)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(""); err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("tick")
		if err != nil {
			t.Fatal(err)
		}
		q, err := ctx.CreateCommandQueue(devs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tenantState{client: client, q: q, k: k}
	}

	// Measured window.
	var wg sync.WaitGroup
	start := time.Now()
	busy0 := node.Board.BusyTime()
	for i := range tenants {
		wg.Add(1)
		go func(ts tenantState) {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / consistencyRate)
			next := time.Now()
			for time.Since(start) < consistencyRun {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				if _, err := ts.q.EnqueueTask(ts.k, nil); err != nil {
					t.Error(err)
					return
				}
				if err := ts.q.Finish(); err != nil {
					t.Error(err)
					return
				}
			}
		}(tenants[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	busy := node.Board.BusyTime() - busy0
	return busy.Seconds() / elapsed.Seconds()
}

// runDES runs the same scenario on the discrete-event engine.
func runDES(t *testing.T) float64 {
	t.Helper()
	engine := sim.NewEngine()
	server, err := engine.NewServer(sched.FIFO)
	if err != nil {
		t.Fatal(err)
	}
	interval := time.Duration(float64(time.Second) / consistencyRate)
	for tenant := 0; tenant < consistencyTenants; tenant++ {
		name := fmt.Sprintf("tenant-%d", tenant)
		var issue func()
		next := time.Duration(tenant) * time.Millisecond // phase offset
		issue = func() {
			if engine.Now() >= consistencyRun {
				return
			}
			server.Enqueue(name, 1, tickKernelTime, func(wait, service time.Duration) {
				next += interval
				if next < engine.Now() {
					next = engine.Now()
				}
				engine.At(next, issue)
			})
		}
		engine.At(next, issue)
	}
	engine.Run(consistencyRun)
	return server.BusyTime().Seconds() / consistencyRun.Seconds()
}

func TestLiveMatchesDiscreteEventSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("2s faithful-time run; skipped with -short")
	}
	live := runLive(t)
	des := runDES(t)
	// Expected utilization: 2 tenants x 20 rq/s x 5 ms = 20%.
	if des < 0.18 || des > 0.22 {
		t.Fatalf("DES utilization = %.3f, want ~0.20", des)
	}
	diff := live - des
	if diff < 0 {
		diff = -diff
	}
	// The live run adds real RPC/scheduling noise; agreement within 15%
	// relative validates that the DES models the same system.
	if diff > des*0.15 {
		t.Fatalf("live utilization %.3f vs DES %.3f diverge by more than 15%%", live, des)
	}
	t.Logf("utilization: live %.3f, DES %.3f", live, des)
}
