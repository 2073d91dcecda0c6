// Package stack assembles the live BlastFunction system from its parts,
// once, for every caller: a node is one simulated board behind its Device
// Manager and the manager's RPC endpoint (cmd/devicemanager, the
// in-process testbed, the live experiments and test rigs); the control
// plane is the cluster orchestrator, the Accelerators Registry's
// controller and the serverless gateway with the sobel/mm/cnn use cases
// (cmd/gateway, the full-stack tests, the examples).
package stack

import (
	"net/http"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/rpc"
)

// NodeConfig describes one node.
type NodeConfig struct {
	// Manager configures the Device Manager. Its Log also receives the
	// RPC server's transport events, as component "rpc"; nil keeps the
	// whole node silent.
	Manager manager.Config
	// Cost is the board's cost model; nil selects the worker node's.
	Cost *model.CostModel
	// TimeScale is the board's wall seconds per modelled second (0
	// disables sleeping).
	TimeScale float64
	// Catalog holds the bitstreams the board can load; nil selects
	// accel.Catalog().
	Catalog *fpga.Catalog
	// Listen is the RPC listen address ("127.0.0.1:0" picks a port).
	Listen string
}

// Node is one running node: a simulated DE5a-Net board, its Device
// Manager, and the manager's RPC endpoint.
type Node struct {
	Board   *fpga.Board
	Manager *manager.Manager
	// Addr is the address the RPC endpoint listens on.
	Addr string

	server *rpc.Server
}

// NewNode builds the board and its manager and serves the manager's RPC
// on cfg.Listen. A listen failure closes the manager again and returns
// the listener's error as is.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Cost == nil {
		cfg.Cost = model.WorkerNode()
	}
	if cfg.Catalog == nil {
		cfg.Catalog = accel.Catalog()
	}
	bcfg := fpga.DE5aNet(cfg.Cost)
	bcfg.TimeScale = cfg.TimeScale
	n := &Node{Board: fpga.NewBoard(bcfg, cfg.Catalog)}
	n.Manager = manager.New(cfg.Manager, n.Board)
	n.server = rpc.NewServer(n.Manager)
	n.server.Log = cfg.Manager.Log.Named("rpc")
	addr, err := n.server.Listen(cfg.Listen)
	if err != nil {
		n.Manager.Close()
		return nil, err
	}
	n.Addr = addr
	return n, nil
}

// Handler serves the node's HTTP routes: the manager's metrics at
// /metrics, and its task, scheduler, buffer-cache, flash and flight
// views under /debug/.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", n.Manager.MetricsHandler())
	mux.Handle("/debug/tasks", n.Manager.TraceHandler())
	mux.Handle("/debug/sched", n.Manager.SchedStatsHandler())
	mux.Handle("/debug/cache", n.Manager.CacheStatsHandler())
	mux.Handle("/debug/flash", n.Manager.Flash().Handler())
	mux.Handle("/debug/flight", n.Manager.FlightHandler())
	return mux
}

// Close stops serving RPC, then closes the manager.
func (n *Node) Close() error {
	err := n.server.Close()
	n.Manager.Close()
	return err
}
