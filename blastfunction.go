// Package blastfunction is the public façade of the BlastFunction
// reproduction: an FPGA-as-a-Service system that time-shares (simulated)
// FPGA boards between serverless functions and microservices, after
// "BlastFunction: an FPGA-as-a-Service system for Accelerated Serverless
// Computing" (Bacis, Brondolin, Santambrogio — DATE 2020).
//
// The package offers an in-process testbed that wires simulated boards,
// Device Managers and RPC servers together, which is what the runnable
// examples and most integration tests build on. Production-style
// deployments run the pieces as separate processes via cmd/devicemanager,
// cmd/registry and cmd/gateway instead; their shared operations plane
// (logger, debug mux, monitoring, graceful shutdown) is internal/opsplane.
package blastfunction

import (
	"errors"
	"fmt"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/remote"
	"blastfunction/internal/rpc"
)

// NodeConfig describes one simulated node of a Testbed.
type NodeConfig struct {
	// Name is the node name ("A", "B", ...).
	Name string
	// Master selects the master-node cost model (PCIe Gen2, slower host)
	// instead of the worker model.
	Master bool
	// Log, when non-nil, receives the node's Device Manager structured
	// events (nil keeps the manager silent at zero cost).
	Log *logx.Logger
	// NoFlightRecorder disables the manager's always-on task flight
	// recorder — benchmark baselines only.
	NoFlightRecorder bool
}

// Node is one running node of a Testbed: a simulated DE5a-Net board, its
// Device Manager, and the manager's RPC endpoint.
type Node struct {
	Name    string
	Addr    string
	Manager *manager.Manager
	Board   *fpga.Board

	server *rpc.Server
}

// Testbed is an in-process BlastFunction deployment.
type Testbed struct {
	Nodes []*Node
}

// NewTestbed starts one board + Device Manager per node configuration,
// each serving RPC on a loopback port.
func NewTestbed(nodes ...NodeConfig) (*Testbed, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("blastfunction: testbed needs at least one node")
	}
	tb := &Testbed{}
	for i, nc := range nodes {
		if nc.Name == "" {
			nc.Name = fmt.Sprintf("node-%d", i)
		}
		cost := model.WorkerNode()
		if nc.Master {
			cost = model.MasterNode()
		}
		board := fpga.NewBoard(fpga.DE5aNet(cost), accel.Catalog())
		mgr := manager.New(manager.Config{
			Node:             nc.Name,
			DeviceID:         "fpga-" + nc.Name,
			Log:              nc.Log,
			NoFlightRecorder: nc.NoFlightRecorder,
		}, board)
		srv := rpc.NewServer(mgr)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("blastfunction: node %s: %w", nc.Name, err)
		}
		tb.Nodes = append(tb.Nodes, &Node{
			Name:    nc.Name,
			Addr:    addr,
			Manager: mgr,
			Board:   board,
			server:  srv,
		})
	}
	return tb, nil
}

// Addrs lists every node's Device Manager RPC address.
func (tb *Testbed) Addrs() []string {
	addrs := make([]string, len(tb.Nodes))
	for i, n := range tb.Nodes {
		addrs[i] = n.Addr
	}
	return addrs
}

// Client opens a Remote OpenCL Library client named name, connected to the
// given nodes (all of them when none specified). Transport follows the
// paper's policy: shared memory when possible, RPC otherwise.
func (tb *Testbed) Client(name string, nodeNames ...string) (*remote.Client, error) {
	var addrs []string
	if len(nodeNames) == 0 {
		addrs = tb.Addrs()
	} else {
		for _, want := range nodeNames {
			found := false
			for _, n := range tb.Nodes {
				if n.Name == want {
					addrs = append(addrs, n.Addr)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("blastfunction: unknown node %q", want)
			}
		}
	}
	return remote.Dial(remote.Config{
		ClientName: name,
		Managers:   addrs,
		Transport:  remote.TransportAuto,
	})
}

// Close tears the testbed down.
func (tb *Testbed) Close() error {
	var errs []error
	for _, n := range tb.Nodes {
		if n.server != nil {
			errs = append(errs, n.server.Close())
		}
		if n.Manager != nil {
			n.Manager.Close()
		}
	}
	return errors.Join(errs...)
}
