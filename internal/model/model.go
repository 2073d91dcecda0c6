// Package model holds the calibrated cost models of the reproduction.
//
// The paper evaluates BlastFunction on a three-node testbed with one Terasic
// DE5a-Net (Intel Arria 10 GX 1150) per node. No FPGA hardware is available
// to this reproduction, so every latency the hardware or the transports
// would produce is computed from analytic models calibrated against the
// measurements the paper reports (Figure 4 and Tables II-IV). The live
// system (RPC + shared memory + Device Manager) and the discrete-event
// experiments share these models, which keeps the two views consistent.
//
// Calibration anchors taken from the paper:
//
//   - R/W RTT (Fig. 4a): gRPC path about 4x native at large sizes (3 extra
//     buffer copies + serialization); shm path overhead 155 ms at 2 GB
//     total (about 13 GB/s effective one-copy bandwidth); roughly 2 ms of
//     gRPC control signalling in both remote paths.
//   - Sobel (Fig. 4b): native RTT 0.27 ms at 10x10 up to 14.53 ms at
//     1920x1080, linear in pixels; remote gRPC from 2.46 ms up to 24 ms;
//     shm a constant ~2 ms above native.
//   - MM (Fig. 4c): native 0.45 ms at 16^2 up to 3.571 s at 4096^2 (cubic
//     kernel, ~38.4 GFLOP/s = 256 MACs/cycle at 150 MHz for the 16x16
//     fully unrolled Spector design); gRPC max 3.675 s; shm max 3.588 s.
//   - AlexNet/PipeCNN: native ~92-94 ms per inference; remote ~125-133 ms
//     because the host launches many kernels per inference, each paying
//     control overhead.
package model

import "time"

// GB is one gigabyte in bytes, used by bandwidth conversions.
const GB = 1 << 30

// CostModel captures the transport and host-side costs of one node class.
// All bandwidths are effective (measured-style), not theoretical peaks.
type CostModel struct {
	// PCIeGBps is the effective host-to-board DMA bandwidth. The worker
	// nodes hold PCIe Gen3 x8 links (~6 GB/s effective); the master node
	// has a Gen2 x8 link (~3 GB/s effective).
	PCIeGBps float64
	// PCIeBaseLatency is the fixed cost of one DMA transaction setup.
	PCIeBaseLatency time.Duration
	// MemcpyGBps is the host memory copy bandwidth; the single staging
	// copy of the shared-memory path runs at this speed.
	MemcpyGBps float64
	// SerializeGBps is the effective protobuf-style serialization
	// bandwidth of the gRPC data path (encode + decode amortized).
	SerializeGBps float64
	// GRPCDataCopies is the number of extra full-buffer copies the gRPC
	// data path performs over the shm path (the paper counts 3: user ->
	// protobuf arena -> socket -> manager staging).
	GRPCDataCopies int
	// ControlRTT is the control-plane round-trip cost a flushed task pays
	// (request + async completion signalling). Both remote paths pay it.
	ControlRTT time.Duration
	// PerOpControl is the extra control cost of each additional operation
	// inside a task (argument marshalling, event bookkeeping).
	PerOpControl time.Duration
	// HostFactor scales host-side CPU work (copies, serialization, HTTP
	// handling). 1.0 for the i7-6700 workers; >1 for the older Xeon
	// W3530 master node.
	HostFactor float64
	// ReconfigureTime is the board reprogramming latency for a full
	// bitstream (Arria 10 via CvP takes on the order of seconds).
	ReconfigureTime time.Duration
	// DDRGBps is the effective on-board DDR4 copy bandwidth, paid by
	// device-to-device buffer copies (task chaining). Roughly 2x the PCIe
	// link: the DE5a-Net's two DDR4-2133 banks sustain ~12 GB/s for a
	// read+write stream.
	DDRGBps float64
}

// WorkerNode returns the cost model of the testbed worker nodes
// (i7-6700, PCIe Gen3 x8, DDR4).
func WorkerNode() *CostModel {
	return &CostModel{
		PCIeGBps:        6.0,
		PCIeBaseLatency: 10 * time.Microsecond,
		MemcpyGBps:      13.0,
		SerializeGBps:   3.7,
		GRPCDataCopies:  3,
		ControlRTT:      2 * time.Millisecond,
		PerOpControl:    150 * time.Microsecond,
		HostFactor:      1.0,
		ReconfigureTime: 2 * time.Second,
		DDRGBps:         12.0,
	}
}

// MasterNode returns the cost model of the testbed master node
// (Xeon W3530, PCIe Gen2 x8, DDR3). Its slower link and older memory
// subsystem are what make node A saturate first in the paper's high-load
// Sobel experiment.
func MasterNode() *CostModel {
	return &CostModel{
		PCIeGBps:        3.0,
		PCIeBaseLatency: 12 * time.Microsecond,
		MemcpyGBps:      8.0,
		SerializeGBps:   2.3,
		GRPCDataCopies:  3,
		ControlRTT:      2400 * time.Microsecond,
		PerOpControl:    220 * time.Microsecond,
		HostFactor:      1.45,
		ReconfigureTime: 2 * time.Second,
		DDRGBps:         12.0,
	}
}

// bw converts bytes at gbps gigabytes per second into a duration.
func bw(bytes int64, gbps float64) time.Duration {
	if bytes <= 0 || gbps <= 0 {
		return 0
	}
	sec := float64(bytes) / (gbps * GB)
	return time.Duration(sec * float64(time.Second))
}

// PCIeTransfer returns the DMA time to move n bytes between host and board.
func (m *CostModel) PCIeTransfer(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.PCIeBaseLatency + bw(n, m.PCIeGBps)
}

// HostCopy returns the time of one host-side memcpy of n bytes.
func (m *CostModel) HostCopy(n int64) time.Duration {
	return time.Duration(float64(bw(n, m.MemcpyGBps)) * m.HostFactor)
}

// Serialize returns the protobuf-style encode+decode time for n bytes.
func (m *CostModel) Serialize(n int64) time.Duration {
	return time.Duration(float64(bw(n, m.SerializeGBps)) * m.HostFactor)
}

// GRPCDataOverhead returns the data-plane overhead the gRPC path adds over
// the native path for n transferred bytes: the extra copies plus
// serialization. This is what turns the native RTT into the roughly 4x
// curve of Figure 4a.
func (m *CostModel) GRPCDataOverhead(n int64) time.Duration {
	copies := time.Duration(m.GRPCDataCopies) * m.HostCopy(n)
	return copies + m.Serialize(n)
}

// ShmDataOverhead returns the data-plane overhead of the shared-memory
// path: exactly one staging copy, kept for OpenCL compatibility (the paper
// keeps one copy so clEnqueueRead/WriteBuffer semantics hold).
func (m *CostModel) ShmDataOverhead(n int64) time.Duration {
	return m.HostCopy(n)
}

// DDRCopy returns the on-board time to move n bytes between two device
// buffers (the zero-copy chaining path: a read and a write stream through
// the board's DDR banks, never crossing PCIe). A zero DDRGBps falls back
// to 12 GB/s so hand-built cost models keep working.
func (m *CostModel) DDRCopy(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	gbps := m.DDRGBps
	if gbps <= 0 {
		gbps = 12.0
	}
	return m.PCIeBaseLatency + bw(n, gbps)
}

// TaskControlOverhead returns the control-plane cost of one flushed task
// carrying ops operations.
func (m *CostModel) TaskControlOverhead(ops int) time.Duration {
	if ops <= 0 {
		return 0
	}
	return m.ControlRTT + time.Duration(ops-1)*m.PerOpControl
}

// Transport identifies the data path between the Remote OpenCL Library and
// the Device Manager.
type Transport int

// Transports the Remote OpenCL Library can use.
const (
	// TransportNative means no manager at all: the baseline runtime that
	// owns the board via PCIe passthrough.
	TransportNative Transport = iota
	// TransportGRPC moves buffers through the RPC channel (3 extra copies
	// plus serialization).
	TransportGRPC
	// TransportShm moves buffers through a mmap'd shared-memory segment
	// (1 extra copy).
	TransportShm
)

// String names the transport as the paper's figures label them.
func (t Transport) String() string {
	switch t {
	case TransportNative:
		return "Native"
	case TransportGRPC:
		return "BlastFunction"
	case TransportShm:
		return "BlastFunction shm"
	}
	return "unknown"
}

// DataOverhead returns the extra per-transfer cost of the transport over
// native for n bytes of payload.
func (m *CostModel) DataOverhead(t Transport, n int64) time.Duration {
	switch t {
	case TransportGRPC:
		return m.GRPCDataOverhead(n)
	case TransportShm:
		return m.ShmDataOverhead(n)
	default:
		return 0
	}
}

// ControlOverhead returns the control-plane cost of one flushed task with
// ops operations for the transport (native pays none).
func (m *CostModel) ControlOverhead(t Transport, ops int) time.Duration {
	if t == TransportNative {
		return 0
	}
	return m.TaskControlOverhead(ops)
}
