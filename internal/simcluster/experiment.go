package simcluster

import (
	"fmt"
	"sort"
	"time"

	"blastfunction/internal/model"
	"blastfunction/internal/registry"
	"blastfunction/internal/sched"
	"blastfunction/internal/sim"
)

// NodeSpec is one testbed node hosting one board.
type NodeSpec struct {
	// Name is the node name ("A", "B", "C").
	Name string
	// Cost is the node's cost model (the master node is slower).
	Cost *model.CostModel
}

// Testbed returns the paper's three-node deployment: master node A (Xeon,
// PCIe Gen2) plus worker nodes B and C (i7, PCIe Gen3), each with one
// DE5a-Net board.
func Testbed() []NodeSpec {
	return []NodeSpec{
		{Name: "A", Cost: model.MasterNode()},
		{Name: "B", Cost: model.WorkerNode()},
		{Name: "C", Cost: model.WorkerNode()},
	}
}

// FunctionSpec is one deployed serverless function under load.
type FunctionSpec struct {
	// Name is the function name ("sobel-1" ... "sobel-5").
	Name string
	// Workload is the per-request profile.
	Workload Workload
	// TargetRPS is the hey rate limit (Table I).
	TargetRPS float64
	// Connections is the number of closed-loop connections; the paper
	// uses one per function.
	Connections int
	// Node pins the function (Native scenario); empty lets Algorithm 1
	// place it.
	Node string
}

// Experiment describes one Table II/III/IV run.
type Experiment struct {
	// Nodes is the testbed.
	Nodes []NodeSpec
	// Functions are the deployed functions with their loads.
	Functions []FunctionSpec
	// Transport is the BlastFunction data path (TransportShm in the
	// paper's runs) or TransportNative for the baseline.
	Transport model.Transport
	// StaggerDelay separates function deployments so Algorithm 1 sees the
	// load of earlier functions — the paper deploys and ramps functions
	// through the live registry the same way. Zero deploys all at once.
	StaggerDelay time.Duration
	// Warmup excludes the initial ramp from measurement.
	Warmup time.Duration
	// Measure is the measured load interval.
	Measure time.Duration

	// Scheduling selects the Device Manager queue discipline every board
	// queue runs; the empty value selects fifo, the paper's design.
	Scheduling sched.Discipline
	// OverlapDMA enables the pipelining ablation: each board gets a
	// separate DMA engine so one task's transfers overlap another task's
	// kernel (the paper's board executes one operation at a time).
	OverlapDMA bool
	// SpaceSharing enables the paper's future-work mode: each board hosts
	// up to two concurrently resident accelerators (partial
	// reconfiguration), removing the accelerator-affinity constraint from
	// allocation at the cost of slower per-design kernels (the area split
	// shrinks each design; see SpaceSharePenalty).
	SpaceSharing bool
	// Order and Filters override Algorithm 1's default policy for the
	// allocation ablation; nil selects registry.DefaultPolicy.
	Order   []registry.Criterion
	Filters []registry.Filter
}

// FunctionResult is one row of the per-function tables.
type FunctionResult struct {
	Function string
	Node     string
	// Utilization is the share of the measurement window the function
	// occupied its board (the paper's per-function FPGA time
	// utilization).
	Utilization float64
	// AvgLatency is the mean end-to-end request latency.
	AvgLatency time.Duration
	// Processed is the achieved request rate; Target the configured one.
	Processed float64
	Target    float64
}

// Result is one experiment's outcome.
type Result struct {
	Functions []FunctionResult
	// TotalUtilization sums per-function utilizations (the paper's
	// "overall maximum 300%" scale for three boards).
	TotalUtilization float64
	// AvgLatency is the request-weighted mean latency.
	AvgLatency time.Duration
	// Processed and Target are aggregate request rates.
	Processed float64
	Target    float64
}

// SpaceSharePenalty scales kernel service times when two designs share
// the fabric: each gets roughly half the logic, so the unrolled pipelines
// shrink. 1.6x is in line with halving the Spector designs' parallelism.
const SpaceSharePenalty = 1.6

// maxResidentDesigns bounds concurrently resident accelerators per board
// in space-sharing mode (two partial-reconfiguration regions).
const maxResidentDesigns = 2

// board is the DES stand-in for a Device Manager + FPGA.
type board struct {
	id     string
	node   string
	cost   *model.CostModel
	server *sim.Server

	// Space-sharing mode: one sub-server per resident accelerator, each
	// running at SpaceSharePenalty. nil when time-sharing.
	slots    map[string]*sim.Server
	makeSlot func() (*sim.Server, error)

	// Pipelining ablation: a separate DMA engine. nil when the board
	// serializes transfers and kernels (the paper's design).
	dma *sim.Server

	connected int
	// busy history for the utilization metric Algorithm 1 consumes:
	// samples of cumulative busy time, appended every second.
	samples []busySample
}

type busySample struct {
	at   time.Duration
	busy time.Duration
}

// queueFor returns the queue serving the given accelerator: the single
// central queue when time-sharing, the accelerator's slot (created on
// demand, up to maxResidentDesigns) when space-sharing.
func (b *board) queueFor(accelerator string) (*sim.Server, error) {
	if b.slots == nil {
		return b.server, nil
	}
	if q, ok := b.slots[accelerator]; ok {
		return q, nil
	}
	if len(b.slots) >= maxResidentDesigns {
		return nil, fmt.Errorf("simcluster: board %s has no free region for %q", b.id, accelerator)
	}
	q, err := b.makeSlot()
	if err != nil {
		return nil, err
	}
	b.slots[accelerator] = q
	return q, nil
}

// busyTime sums device busy time across the board's queues.
func (b *board) busyTime() time.Duration {
	var total time.Duration
	if b.dma != nil {
		total += b.dma.BusyTime()
	}
	if b.slots == nil {
		return total + b.server.BusyTime()
	}
	for _, q := range b.slots {
		total += q.BusyTime()
	}
	return total
}

// queueLen sums waiting tasks across the board's queues.
func (b *board) queueLen() int {
	if b.slots == nil {
		return b.server.QueueLen()
	}
	n := 0
	for _, q := range b.slots {
		n += q.QueueLen()
	}
	return n
}

// utilization returns the busy fraction over the trailing window.
func (b *board) utilization(now, window time.Duration) float64 {
	if len(b.samples) == 0 {
		return 0
	}
	cur := busySample{at: now, busy: b.busyTime()}
	// Find the earliest sample inside the window.
	lo := sort.Search(len(b.samples), func(i int) bool {
		return b.samples[i].at >= now-window
	})
	var prev busySample
	if lo < len(b.samples) {
		prev = b.samples[lo]
	}
	dt := cur.at - prev.at
	if dt <= 0 {
		return 0
	}
	return float64(cur.busy-prev.busy) / float64(dt)
}

// simMetrics adapts the boards to the registry's MetricsSource.
type simMetrics struct {
	engine *sim.Engine
	boards map[string]*board
	window time.Duration
}

// DeviceMetrics implements registry.MetricsSource.
func (m *simMetrics) DeviceMetrics(deviceID, node string) (registry.DeviceMetrics, bool) {
	b, ok := m.boards[deviceID]
	if !ok {
		return registry.DeviceMetrics{}, false
	}
	return registry.DeviceMetrics{
		Utilization: b.utilization(m.engine.Now(), m.window),
		Connected:   float64(b.connected),
		QueueDepth:  float64(b.queueLen()),
	}, true
}

// functionState is one function's generator and accounting.
type functionState struct {
	spec      FunctionSpec
	transport model.Transport
	board     *board

	issuedInWindow    int
	completedInWindow int
	latencySum        time.Duration
	busyInWindow      time.Duration
}

// Run executes the experiment and reports per-function and aggregate
// results.
func Run(exp Experiment) (*Result, error) {
	if len(exp.Nodes) == 0 || len(exp.Functions) == 0 {
		return nil, fmt.Errorf("simcluster: experiment needs nodes and functions")
	}
	if exp.Measure <= 0 {
		exp.Measure = 60 * time.Second
	}
	if exp.Warmup <= 0 {
		exp.Warmup = 10 * time.Second
	}

	engine := sim.NewEngine()
	boards := make(map[string]*board, len(exp.Nodes))
	var boardList []*board
	newServer := func() (*sim.Server, error) { return engine.NewServer(exp.Scheduling) }
	for _, n := range exp.Nodes {
		server, err := newServer()
		if err != nil {
			return nil, err
		}
		b := &board{id: "fpga-" + n.Name, node: n.Name, cost: n.Cost, server: server}
		if exp.SpaceSharing {
			b.slots = make(map[string]*sim.Server, maxResidentDesigns)
			b.makeSlot = newServer
		}
		if exp.OverlapDMA {
			if b.dma, err = newServer(); err != nil {
				return nil, err
			}
		}
		boards[b.id] = b
		boardList = append(boardList, b)
	}

	// Metrics sampling every second, like the Prometheus scrape loop.
	var sample func()
	sample = func() {
		for _, b := range boardList {
			b.samples = append(b.samples, busySample{at: engine.Now(), busy: b.busyTime()})
		}
		engine.After(time.Second, sample)
	}
	engine.At(0, sample)

	// The real Accelerators Registry performs the placements.
	src := &simMetrics{engine: engine, boards: boards, window: 10 * time.Second}
	policy := registry.DefaultPolicy(src)
	if exp.Order != nil {
		policy.Order = exp.Order
	}
	if exp.Filters != nil {
		policy.Filters = exp.Filters
	}
	reg, err := registry.New(policy)
	if err != nil {
		return nil, err
	}
	for _, b := range boardList {
		if err := reg.RegisterDevice(registry.Device{
			ID: b.id, Node: b.node,
			Vendor: "Intel(R) Corporation", Platform: "Intel(R) FPGA SDK for OpenCL(TM)",
		}); err != nil {
			return nil, err
		}
	}

	lastDeploy := time.Duration(0)
	states := make([]*functionState, len(exp.Functions))
	statesByUID := make(map[string]*functionState, len(exp.Functions))
	var allocErr error
	for i, fn := range exp.Functions {
		if fn.Connections <= 0 {
			fn.Connections = 1
		}
		st := &functionState{spec: fn, transport: exp.Transport}
		states[i] = st
		deployAt := time.Duration(i) * exp.StaggerDelay
		if deployAt > lastDeploy {
			lastDeploy = deployAt
		}
		query := registry.DeviceQuery{Vendor: "Intel(R) Corporation", Accelerator: fn.Workload.Name}
		if exp.SpaceSharing {
			// Space-sharing lifts the accelerator-affinity constraint: any
			// board can host the design in a free region.
			query.Accelerator = ""
		}
		if err := reg.RegisterFunction(registry.Function{
			Name:      fn.Name,
			Query:     query,
			Bitstream: fn.Workload.Name,
		}); err != nil {
			return nil, err
		}
		i := i
		engine.At(deployAt, func() {
			fnSpec := states[i].spec
			var chosen *board
			if fnSpec.Node != "" {
				for _, b := range boardList {
					if b.node == fnSpec.Node {
						chosen = b
						break
					}
				}
				if chosen == nil {
					allocErr = fmt.Errorf("simcluster: function %q pinned to unknown node %q", fnSpec.Name, fnSpec.Node)
					return
				}
			} else {
				uid := fmt.Sprintf("uid-%d", i)
				alloc, err := reg.Allocate(registry.AllocRequest{
					InstanceUID:  uid,
					InstanceName: fnSpec.Name,
					Function:     fnSpec.Name,
				})
				if err != nil {
					allocErr = fmt.Errorf("simcluster: allocating %q: %w", fnSpec.Name, err)
					return
				}
				chosen = boards[alloc.Device.ID]
				statesByUID[uid] = states[i]
				// Migrate displaced instances: the controller would replace
				// them through the orchestrator (create-before-delete) and
				// re-run the allocation; here the generator simply switches
				// boards for its subsequent requests.
				for _, displaced := range alloc.Displaced {
					moved := statesByUID[displaced]
					if moved == nil {
						continue
					}
					reg.Release(displaced)
					realloc, err := reg.Allocate(registry.AllocRequest{
						InstanceUID:  displaced,
						InstanceName: moved.spec.Name,
						Function:     moved.spec.Name,
					})
					if err != nil {
						allocErr = fmt.Errorf("simcluster: migrating %q: %w", moved.spec.Name, err)
						return
					}
					moved.board.connected -= moved.spec.Connections
					moved.board = boards[realloc.Device.ID]
					moved.board.connected += moved.spec.Connections
				}
			}
			states[i].board = chosen
			chosen.connected += fnSpec.Connections
			startGenerators(engine, states[i], exp)
		})
	}

	measureStart := lastDeploy + exp.Warmup
	end := measureStart + exp.Measure
	engine.Run(end)
	if allocErr != nil {
		return nil, allocErr
	}

	// Assemble results.
	res := &Result{}
	var latWeighted time.Duration
	for _, st := range states {
		fr := FunctionResult{
			Function:    st.spec.Name,
			Utilization: float64(st.busyInWindow) / float64(exp.Measure),
			Processed:   float64(st.completedInWindow) / exp.Measure.Seconds(),
			Target:      st.spec.TargetRPS,
		}
		if st.board != nil {
			fr.Node = st.board.node
		}
		if st.completedInWindow > 0 {
			fr.AvgLatency = st.latencySum / time.Duration(st.completedInWindow)
		}
		res.Functions = append(res.Functions, fr)
		res.TotalUtilization += fr.Utilization
		res.Processed += fr.Processed
		res.Target += fr.Target
		latWeighted += time.Duration(st.completedInWindow) * fr.AvgLatency
	}
	if res.Processed > 0 {
		res.AvgLatency = latWeighted / time.Duration(res.Processed*exp.Measure.Seconds())
	}
	return res, nil
}

// startGenerators launches the function's closed-loop connections. Each
// connection is hey with a rate limit: the next request goes out at the
// later of the previous completion and the next rate slot; a saturated
// connection reschedules from "now" rather than building a backlog.
func startGenerators(engine *sim.Engine, st *functionState, exp Experiment) {
	perConn := st.spec.TargetRPS / float64(st.spec.Connections)
	var interval time.Duration
	if perConn > 0 {
		interval = time.Duration(float64(time.Second) / perConn)
	}
	measureStart := time.Duration(len(exp.Functions)-1)*exp.StaggerDelay + exp.Warmup
	measureEnd := measureStart + exp.Measure

	for conn := 0; conn < st.spec.Connections; conn++ {
		var issue func()
		// Deterministic per-connection phase offset. Without it, functions
		// with harmonically related rates fire in lockstep forever and
		// every request of the slower function queues behind the faster
		// one — an artifact real deployments don't exhibit.
		offset := phaseOffset(st.spec.Name, conn, interval)
		nextSlot := engine.Now() + offset
		// Deterministic LCG for +-8% inter-arrival jitter: closed loops
		// with identical service times re-lock phases after any collision;
		// real HTTP load has natural jitter that prevents it.
		rng := uint64(offset) | 1
		jitter := func() time.Duration {
			if interval <= 0 {
				return 0
			}
			rng = rng*6364136223846793005 + 1442695040888963407
			span := int64(interval) / 25 * 4 // 16% total width
			if span <= 0 {
				return 0
			}
			return time.Duration(int64(rng>>33)%span - span/2)
		}
		issue = func() {
			if engine.Now() >= measureEnd {
				return
			}
			t0 := engine.Now()
			measured := t0 >= measureStart
			if measured {
				st.issuedInWindow++
			}
			cost := st.board.cost
			// Serverless path: gateway + function runtime.
			engine.After(HTTPOverhead(cost), func() {
				runTasks(engine, st, 0, t0, measured, func() {
					if measured && engine.Now() <= measureEnd {
						st.completedInWindow++
						st.latencySum += engine.Now() - t0
					}
					// Closed loop with rate limit.
					nextSlot += interval + jitter()
					if nextSlot < engine.Now() {
						nextSlot = engine.Now()
					}
					engine.At(nextSlot, issue)
				})
			})
		}
		engine.At(nextSlot, issue)
	}
}

// phaseOffset spreads generator start times deterministically inside one
// rate interval, seeded by the function name and connection index.
func phaseOffset(name string, conn int, interval time.Duration) time.Duration {
	h := uint64(1469598103934665603) // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(conn)
	h *= 1099511628211
	span := interval
	if span <= 0 || span > 50*time.Millisecond {
		span = 50 * time.Millisecond
	}
	return time.Duration(h % uint64(span))
}

// runTasks executes the request's tasks sequentially: transport overhead
// as host-side delay, then the board's central queue for the device
// time, charged the task's op count as the manager charges Item.Cost.
func runTasks(engine *sim.Engine, st *functionState, idx int, t0 time.Duration, measured bool, done func()) {
	if idx >= len(st.spec.Workload.Tasks) {
		done()
		return
	}
	task := st.spec.Workload.Tasks[idx]
	cost := st.board.cost
	overhead := cost.ControlOverhead(st.transport, task.Ops) + cost.DataOverhead(st.transport, task.HostBytes)
	engine.After(overhead, func() {
		queue, err := st.board.queueFor(st.spec.Workload.Name)
		if err != nil {
			// No free region: drop the request (counts as unprocessed).
			done()
			return
		}
		finish := func(extraBusy time.Duration) func(wait, service time.Duration) {
			return func(wait, service time.Duration) {
				if measured {
					st.busyInWindow += service + extraBusy
				}
				runTasks(engine, st, idx+1, t0, measured, done)
			}
		}
		ops := int64(task.Ops)
		service := task.Device(cost)
		if st.board.slots != nil {
			service = time.Duration(float64(service) * SpaceSharePenalty)
		}
		if st.board.dma != nil && task.Split != nil {
			// Pipelining ablation: the DMA engine moves data while the
			// kernel engine computes another task.
			dmaTime, kernelTime := task.Split(cost)
			st.board.dma.Enqueue(st.spec.Name, ops, dmaTime, func(_, dmaService time.Duration) {
				if kernelTime <= 0 {
					finish(0)(0, dmaService)
					return
				}
				queue.Enqueue(st.spec.Name, ops, kernelTime, finish(dmaService))
			})
			return
		}
		queue.Enqueue(st.spec.Name, ops, service, finish(0))
	})
}
