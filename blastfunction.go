// Package blastfunction is the public façade of the BlastFunction
// reproduction: an FPGA-as-a-Service system that time-shares (simulated)
// FPGA boards between serverless functions and microservices, after
// "BlastFunction: an FPGA-as-a-Service system for Accelerated Serverless
// Computing" (Bacis, Brondolin, Santambrogio — DATE 2020).
//
// The package offers an in-process testbed of nodes — simulated boards,
// Device Managers and RPC servers, each built by internal/stack as
// cmd/devicemanager builds its one — which is what the runnable examples
// and most integration tests build on. Production-style deployments run
// the pieces as separate processes via cmd/devicemanager, cmd/registry
// and cmd/gateway instead; their shared operations plane (logger, debug
// mux, monitoring, graceful shutdown) is internal/opsplane.
package blastfunction

import (
	"errors"
	"fmt"
	"slices"

	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/remote"
	"blastfunction/internal/stack"
)

// NodeConfig describes one simulated node of a Testbed.
type NodeConfig struct {
	// Name is the node name ("A", "B", ...).
	Name string
	// Master selects the master-node cost model (PCIe Gen2, slower host)
	// instead of the worker model.
	Master bool
}

// Node is one running node of a Testbed: a simulated DE5a-Net board, its
// Device Manager, and the manager's RPC endpoint.
type Node struct {
	Name string
	*stack.Node
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
		n, err := stack.NewNode(stack.NodeConfig{
			Manager: manager.Config{Node: nc.Name, DeviceID: "fpga-" + nc.Name},
			Cost:    cost,
			Listen:  "127.0.0.1:0",
		})
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("blastfunction: node %s: %w", nc.Name, err)
		}
		tb.Nodes = append(tb.Nodes, &Node{Name: nc.Name, Node: n})
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
	addrs := tb.Addrs()
	if len(nodeNames) > 0 {
		addrs = nil
		for _, want := range nodeNames {
			i := slices.IndexFunc(tb.Nodes, func(n *Node) bool { return n.Name == want })
			if i < 0 {
				return nil, fmt.Errorf("blastfunction: unknown node %q", want)
			}
			addrs = append(addrs, tb.Nodes[i].Addr)
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
		errs = append(errs, n.Close())
	}
	return errors.Join(errs...)
}
