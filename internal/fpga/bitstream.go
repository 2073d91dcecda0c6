// Package fpga simulates the FPGA boards of the paper's testbed.
//
// The paper runs on Terasic DE5a-Net boards (Intel Arria 10 GX 1150, 8 GB
// DDR, PCIe x8). No hardware is available to this reproduction, so Board
// emulates the observable behaviour the rest of BlastFunction depends on:
//
//   - a configured bitstream that must match the kernels a client launches,
//     with a multi-second reconfiguration penalty to swap it;
//   - on-board DDR buffers written and read over a PCIe link with modelled
//     DMA cost;
//   - exclusive kernel execution: one operation occupies the device at a
//     time, with service times from calibrated analytic models; kernels
//     additionally run real software implementations so outputs are
//     bit-checkable;
//   - busy-time accounting, the raw input of the paper's "FPGA time
//     utilization" metric.
//
// Durations returned by Board methods are the modelled (virtual) hardware
// times. A TimeScale knob optionally converts them into real sleeps so live
// end-to-end runs exhibit hardware-like queueing without hardware-scale
// waits.
package fpga

import (
	"bytes"
	"fmt"
	"time"

	"blastfunction/internal/ocl"
)

// binaryMagic prefixes every simulated .aocx binary. The rest of the binary
// is the bitstream identifier resolved against a Catalog.
const binaryMagic = "AOCX0:"

// MemAccess gives kernel implementations access to board memory during a
// launch. Buffers are addressed by the IDs carried in kernel arguments.
type MemAccess interface {
	// Bytes returns the backing storage of a buffer.
	Bytes(id uint64) ([]byte, error)
}

// KernelModel computes the modelled hardware execution time of one kernel
// launch from its bound arguments and the NDRange global size (nil for
// clEnqueueTask-style single work-item launches).
type KernelModel func(args []ocl.Arg, global []int) time.Duration

// KernelFunc performs the kernel's real computation against board memory.
// It may be nil for timing-only kernels.
type KernelFunc func(mem MemAccess, args []ocl.Arg, global []int) error

// KernelSpec describes one kernel inside a bitstream.
type KernelSpec struct {
	// Name is the kernel name used by clCreateKernel.
	Name string
	// NumArgs is the number of arguments the kernel expects; launches with
	// unbound arguments fail with CL_INVALID_KERNEL_ARGS.
	NumArgs int
	// Model yields the modelled execution latency of a launch.
	Model KernelModel
	// Run executes the kernel's computation; nil means no data movement.
	Run KernelFunc
}

// Bitstream is a synthesized FPGA design: a set of kernels plus the
// metadata the Accelerators Registry matches on.
type Bitstream struct {
	// ID uniquely identifies the bitstream (e.g. "spector-sobel").
	ID string
	// Accelerator is the logical accelerator family, used for
	// compatibility checks during allocation (e.g. "sobel").
	Accelerator string
	// Vendor is the platform vendor the design was synthesized for.
	Vendor string
	// MemGeometry names the design's DDR bank/interleaving layout. Two
	// bitstreams with the same geometry address board memory identically,
	// so buffer contents survive swapping between them; a geometry change
	// invalidates every resident buffer. Empty means the platform default
	// (single interleaved bank), which most designs use.
	MemGeometry string
	// Kernels lists the kernels the design contains.
	Kernels []KernelSpec
}

// Kernel returns the spec of the named kernel.
func (b *Bitstream) Kernel(name string) (*KernelSpec, error) {
	for i := range b.Kernels {
		if b.Kernels[i].Name == name {
			return &b.Kernels[i], nil
		}
	}
	return nil, ocl.Errf(ocl.ErrInvalidKernelName, "bitstream %q has no kernel %q", b.ID, name)
}

// KernelNames lists the kernel names in declaration order.
func (b *Bitstream) KernelNames() []string {
	names := make([]string, len(b.Kernels))
	for i := range b.Kernels {
		names[i] = b.Kernels[i].Name
	}
	return names
}

// Binary renders the simulated .aocx bytes that clCreateProgramWithBinary
// accepts for this bitstream.
func (b *Bitstream) Binary() []byte {
	return []byte(binaryMagic + b.ID)
}

// Catalog resolves bitstream binaries, playing the role of the offline
// synthesis flow's artifact store.
type Catalog struct {
	byID map[string]*Bitstream
}

// NewCatalog builds a catalog from the given bitstreams.
func NewCatalog(streams ...*Bitstream) *Catalog {
	c := &Catalog{byID: make(map[string]*Bitstream, len(streams))}
	for _, s := range streams {
		c.byID[s.ID] = s
	}
	return c
}

// Add registers a bitstream, replacing any previous one with the same ID.
func (c *Catalog) Add(s *Bitstream) { c.byID[s.ID] = s }

// Lookup returns the bitstream with the given ID.
func (c *Catalog) Lookup(id string) (*Bitstream, error) {
	s, ok := c.byID[id]
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidBinary, "unknown bitstream %q", id)
	}
	return s, nil
}

// Parse resolves a simulated .aocx binary to its bitstream.
func (c *Catalog) Parse(binary []byte) (*Bitstream, error) {
	if !bytes.HasPrefix(binary, []byte(binaryMagic)) {
		return nil, ocl.Errf(ocl.ErrInvalidBinary, "binary is not a simulated aocx (missing %q prefix)", binaryMagic)
	}
	return c.Lookup(string(binary[len(binaryMagic):]))
}

// IDs lists the catalog's bitstream IDs (unordered).
func (c *Catalog) IDs() []string {
	ids := make([]string, 0, len(c.byID))
	for id := range c.byID {
		ids = append(ids, id)
	}
	return ids
}

// String implements fmt.Stringer.
func (b *Bitstream) String() string {
	return fmt.Sprintf("%s(acc=%s, kernels=%d)", b.ID, b.Accelerator, len(b.Kernels))
}
