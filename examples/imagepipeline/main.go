// Imagepipeline: the full BlastFunction serverless stack, in process.
//
// The example reproduces the structure of the paper's Sobel experiment
// (Table II) live: three nodes with one simulated board each, the
// Accelerators Registry intercepting instance creation and running the
// allocation algorithm, the gateway materializing five Sobel functions
// over Remote OpenCL Library clients, and a hey-style load generator
// driving every function with one closed-loop connection. Placements and
// utilization come from the real components, not the simulator.
//
// Run with: go run ./examples/imagepipeline
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"blastfunction"
	"blastfunction/internal/cluster"
	"blastfunction/internal/gateway"
	"blastfunction/internal/loadgen"
	"blastfunction/internal/logx"
	"blastfunction/internal/registry"
	"blastfunction/internal/stack"
)

// Live-demo image size: small enough that the real software Sobel keeps
// up with the request rates (the paper-scale numbers come from
// cmd/blastbench, which uses the calibrated models instead).
const imgW, imgH = 320, 240

func main() {
	// 1. Three nodes, one board + Device Manager each (A is the slower
	// master node, as in the paper's testbed).
	tb, err := blastfunction.NewTestbed(
		blastfunction.NodeConfig{Name: "A", Master: true},
		blastfunction.NodeConfig{Name: "B"},
		blastfunction.NodeConfig{Name: "C"},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	// 2. Control plane, assembled as cmd/gateway assembles it: cluster
	// orchestrator, Accelerators Registry controller and the serverless
	// gateway. The default policy orders by utilization then connected
	// instances; with no scraper attached the Registry still spreads
	// functions using its own connected-instance counts.
	reg, err := registry.New(registry.DefaultPolicy(nil))
	if err != nil {
		log.Fatal(err)
	}
	cp := stack.NewControlPlane(stack.ControlPlaneConfig{Registry: reg, Log: logx.Default("gateway")})
	for _, n := range tb.Nodes {
		if err := cp.AddManager(n.Name, "fpga-"+n.Name, n.Addr, ""); err != nil {
			log.Fatal(err)
		}
	}
	cp.Start()
	defer cp.Close()

	// 3. Five identical Sobel functions.
	functions := []string{"sobel-1", "sobel-2", "sobel-3", "sobel-4", "sobel-5"}
	for _, name := range functions {
		if err := cp.Deploy(name, "sobel", 0); err != nil {
			log.Fatal(err)
		}
	}
	for _, name := range functions {
		waitReady(cp.Gateway, name)
	}
	srv := httptest.NewServer(cp.Handler())
	defer srv.Close()

	fmt.Println("placements chosen by the allocation algorithm:")
	printPlacements(cp.Cluster, functions)

	// 4. hey-style load: one closed-loop connection per function.
	rates := map[string]float64{
		"sobel-1": 20, "sobel-2": 15, "sobel-3": 10, "sobel-4": 5, "sobel-5": 5,
	}
	fmt.Println("\ndriving each function for 3s (one connection each)...")
	var wg sync.WaitGroup
	results := make([]*loadgen.Result, len(functions))
	for i, name := range functions {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			res, err := loadgen.Run(context.Background(), loadgen.Config{
				URL:         fmt.Sprintf("%s/function/%s?w=%d&h=%d", srv.URL, name, imgW, imgH),
				Connections: 1,
				RatePerSec:  rates[name],
				Duration:    3 * time.Second,
			})
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			results[i] = res
		}(i, name)
	}
	wg.Wait()

	// 5. Report: the live equivalent of a Table II block.
	fmt.Printf("\n%-10s %-5s %12s %12s %10s\n", "function", "node", "latency", "processed", "target")
	for i, name := range functions {
		res := results[i]
		node := placementNode(cp.Cluster, name)
		fmt.Printf("%-10s %-5s %12v %9.2f rq/s %6.0f rq/s\n",
			name, node, res.AvgLatency.Round(time.Microsecond), res.Throughput, rates[name])
	}
	fmt.Println("\nper-board kernel launches (the sharing at work):")
	for _, n := range tb.Nodes {
		st := n.Board.Stats()
		fmt.Printf("  node %s: %4d launches, modelled busy %v\n",
			n.Name, st.KernelRuns, st.BusyTime.Round(time.Millisecond))
	}
}

func waitReady(gw *gateway.Gateway, name string) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if gw.ReadyReplicas(name) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatalf("function %s never became ready", name)
}

func placementNode(cl *cluster.Cluster, function string) string {
	for _, in := range cl.Instances(function) {
		if in.Phase == cluster.Running {
			return in.Node
		}
	}
	return "?"
}

func printPlacements(cl *cluster.Cluster, functions []string) {
	byNode := map[string][]string{}
	for _, fn := range functions {
		node := placementNode(cl, fn)
		byNode[node] = append(byNode[node], fn)
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		fmt.Printf("  node %s: %v\n", n, byNode[n])
	}
}
