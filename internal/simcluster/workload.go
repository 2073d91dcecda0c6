// Package simcluster models the paper's multi-node utilization
// experiments (Section IV-B, Tables II-IV) on the discrete-event engine.
//
// It rebuilds the same structure as the live system — closed-loop load
// generators per function (hey with one connection), per-board central
// task queues running the manager's own sched disciplines (fifo by
// default), Algorithm 1 placements through the real registry package — with
// all service times taken from the calibrated cost models, so a full
// three-node, five-function, minutes-long campaign reproduces in
// milliseconds of wall time.
package simcluster

import (
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/model"
)

// Task is one flushed BlastFunction task of a request: the unit that
// enters a board's central queue, charged Ops as its cost.
type Task struct {
	// Ops is the number of operations in the task (drives per-op control
	// overhead on the remote paths).
	Ops int
	// HostBytes is the payload the transport moves for this task (drives
	// the copy/serialization overhead of the remote paths).
	HostBytes int64
	// Device yields the board occupancy of the task under a node's cost
	// model (DMA transfers + kernel time).
	Device func(c *model.CostModel) time.Duration
	// Split optionally separates the occupancy into DMA and kernel parts
	// for the pipelining ablation (overlapping one task's transfers with
	// another's compute). Nil treats the whole task as unsplittable.
	Split func(c *model.CostModel) (dma, kernel time.Duration)
}

// Workload is the per-request profile of one accelerated function.
type Workload struct {
	// Name labels the workload ("sobel", "mm", "alexnet").
	Name string
	// Tasks execute sequentially; each is one flush.
	Tasks []Task
}

// DeviceTime returns the total board occupancy of one request.
func (w Workload) DeviceTime(c *model.CostModel) time.Duration {
	var total time.Duration
	for _, t := range w.Tasks {
		total += t.Device(c)
	}
	return total
}

// RemoteOverhead returns the per-request control + data overhead the
// given transport adds over native.
func (w Workload) RemoteOverhead(c *model.CostModel, tr model.Transport) time.Duration {
	var total time.Duration
	for _, t := range w.Tasks {
		total += c.ControlOverhead(tr, t.Ops)
		total += c.DataOverhead(tr, t.HostBytes)
	}
	return total
}

// httpOverheadBase is the gateway + function-runtime cost per request on a
// worker node (OpenFaaS routing, JSON handling, HTTP). Scaled by the
// node's HostFactor.
const httpOverheadBase = 7 * time.Millisecond

// HTTPOverhead returns the serverless-path cost of one request on a node.
func HTTPOverhead(c *model.CostModel) time.Duration {
	return time.Duration(float64(httpOverheadBase) * c.HostFactor)
}

// SobelWorkload is one Sobel request over a w x h image: a single task
// carrying write + kernel + read.
func SobelWorkload(w, h int) Workload {
	pixels := int64(w) * int64(h)
	dir := accel.SobelImageBytes(w, h)
	return Workload{
		Name: "sobel",
		Tasks: []Task{{
			Ops:       3,
			HostBytes: 2 * dir,
			Device: func(c *model.CostModel) time.Duration {
				return c.PCIeTransfer(dir) + accel.SobelModel(pixels) + c.PCIeTransfer(dir)
			},
			Split: func(c *model.CostModel) (time.Duration, time.Duration) {
				return 2 * c.PCIeTransfer(dir), accel.SobelModel(pixels)
			},
		}},
	}
}

// MMWorkload is one MM request over n x n matrices: a single task carrying
// two writes + kernel + read.
func MMWorkload(n int) Workload {
	mat := accel.MMMatrixBytes(n)
	return Workload{
		Name: "mm",
		Tasks: []Task{{
			Ops:       4,
			HostBytes: 3 * mat,
			Device: func(c *model.CostModel) time.Duration {
				return 2*c.PCIeTransfer(mat) + accel.MMModel(int64(n)) + c.PCIeTransfer(mat)
			},
			Split: func(c *model.CostModel) (time.Duration, time.Duration) {
				return 3 * c.PCIeTransfer(mat), accel.MMModel(int64(n))
			},
		}},
	}
}

// CNNWorkload is one PipeCNN inference: the input upload, the per-layer
// kernel launches with PipeCNN's flush pattern (convolutions split across
// two queues -> two tasks, pools and FCs one task), and the output read.
// The many small tasks are what makes the remote path pay visibly more
// control overhead here, as the paper observes for AlexNet.
func CNNWorkload(spec *accel.CNNSpec) Workload {
	in := spec.InputBytes()
	out := spec.OutputBytes()
	tasks := []Task{{
		Ops:       1,
		HostBytes: in,
		Device: func(c *model.CostModel) time.Duration {
			return c.PCIeTransfer(in)
		},
		Split: func(c *model.CostModel) (time.Duration, time.Duration) {
			return c.PCIeTransfer(in), 0
		},
	}}
	for _, l := range spec.Layers {
		layerTime := l.ModelTime()
		if l.Kind == accel.LayerConv {
			// Task 1: memRead + coreConv on queue 1.
			tasks = append(tasks, Task{
				Ops: 2,
				Device: func(c *model.CostModel) time.Duration {
					return layerTime + 20*time.Microsecond
				},
			})
			// Task 2: memWrite on queue 2.
			tasks = append(tasks, Task{
				Ops: 1,
				Device: func(c *model.CostModel) time.Duration {
					return 20 * time.Microsecond
				},
			})
		} else {
			tasks = append(tasks, Task{
				Ops: 3,
				Device: func(c *model.CostModel) time.Duration {
					return layerTime + 40*time.Microsecond
				},
			})
		}
	}
	tasks = append(tasks, Task{
		Ops:       1,
		HostBytes: out,
		Device: func(c *model.CostModel) time.Duration {
			return c.PCIeTransfer(out)
		},
		Split: func(c *model.CostModel) (time.Duration, time.Duration) {
			return c.PCIeTransfer(out), 0
		},
	})
	return Workload{Name: spec.Name, Tasks: tasks}
}

// RWWorkload is the pure write+read diagnostic of Figure 4a: one task
// writing half the payload and reading it back, no kernel.
func RWWorkload(totalBytes int64) Workload {
	half := totalBytes / 2
	return Workload{
		Name: "rw",
		Tasks: []Task{{
			Ops:       2,
			HostBytes: totalBytes,
			Device: func(c *model.CostModel) time.Duration {
				return c.PCIeTransfer(half) + c.PCIeTransfer(totalBytes-half)
			},
			Split: func(c *model.CostModel) (time.Duration, time.Duration) {
				return c.PCIeTransfer(half) + c.PCIeTransfer(totalBytes-half), 0
			},
		}},
	}
}
