package accel

import "time"

// LayerKind discriminates CNN layer types.
type LayerKind int

// CNN layer kinds.
const (
	LayerConv LayerKind = iota
	LayerPool
	LayerFC
)

// Layer describes one CNN layer's geometry. Conv layers use InC..Groups,
// pool layers use InC/InH/InW/Pool/PoolStride, FC layers use InN/OutN.
type Layer struct {
	Kind LayerKind
	Name string

	// Convolution parameters (CHW tensors).
	InC, InH, InW        int
	OutC, K, Stride, Pad int
	Groups               int
	Relu                 bool

	// Pooling parameters.
	Pool, PoolStride int

	// Fully-connected parameters.
	InN, OutN int
}

// OutDims returns the layer's output tensor dimensions.
func (l Layer) OutDims() (c, h, w int) {
	switch l.Kind {
	case LayerConv:
		return l.OutC, convOut(l.InH, l.K, l.Stride, l.Pad), convOut(l.InW, l.K, l.Stride, l.Pad)
	case LayerPool:
		return l.InC, (l.InH-l.Pool)/l.PoolStride + 1, (l.InW-l.Pool)/l.PoolStride + 1
	case LayerFC:
		return l.OutN, 1, 1
	}
	return 0, 0, 0
}

// MACs returns the layer's multiply-accumulate count (0 for pooling).
func (l Layer) MACs() int64 {
	switch l.Kind {
	case LayerConv:
		_, oh, ow := l.OutDims()
		return ConvMACs(l.InC, l.OutC, oh, ow, l.K, l.Groups)
	case LayerFC:
		return int64(l.InN) * int64(l.OutN)
	}
	return 0
}

// ModelTime returns the layer's modelled board occupancy.
func (l Layer) ModelTime() time.Duration {
	switch l.Kind {
	case LayerConv:
		return ConvModel(l.MACs())
	case LayerPool:
		c, h, w := l.OutDims()
		return PoolModel(int64(c) * int64(h) * int64(w))
	case LayerFC:
		return FCModel(l.MACs())
	}
	return 0
}

// WeightBytes returns the byte size of the layer's weight buffer.
func (l Layer) WeightBytes() int64 {
	switch l.Kind {
	case LayerConv:
		g := l.Groups
		if g < 1 {
			g = 1
		}
		return int64(l.OutC) * int64(l.InC/g) * int64(l.K) * int64(l.K) * 4
	case LayerFC:
		return int64(l.InN) * int64(l.OutN) * 4
	}
	return 0
}

// BiasBytes returns the byte size of the layer's bias buffer.
func (l Layer) BiasBytes() int64 {
	switch l.Kind {
	case LayerConv:
		return int64(l.OutC) * 4
	case LayerFC:
		return int64(l.OutN) * 4
	}
	return 0
}

// CNNSpec describes a network for the PipeCNN host runner.
type CNNSpec struct {
	Name   string
	Layers []Layer
}

// InputBytes returns the byte size of the network input tensor.
func (s *CNNSpec) InputBytes() int64 {
	l := s.Layers[0]
	if l.Kind == LayerFC {
		return int64(l.InN) * 4
	}
	return int64(l.InC) * int64(l.InH) * int64(l.InW) * 4
}

// OutputBytes returns the byte size of the network output tensor.
func (s *CNNSpec) OutputBytes() int64 {
	c, h, w := s.Layers[len(s.Layers)-1].OutDims()
	return int64(c) * int64(h) * int64(w) * 4
}

// BoardTime returns the modelled board occupancy of one full inference
// (kernel time only, excluding transfers and control overhead).
func (s *CNNSpec) BoardTime() time.Duration {
	var total time.Duration
	for _, l := range s.Layers {
		total += l.ModelTime()
		// Each layer is fed and drained by the memRead/memWrite movers.
		total += 2 * moverLaunchFee
	}
	return total
}

// KernelLaunches returns the number of kernel launches one inference
// performs (movers included), which determines the per-call overhead the
// remote path pays.
func (s *CNNSpec) KernelLaunches() int {
	return 3 * len(s.Layers)
}

// AlexNet returns the paper's AlexNet configuration as synthesized for
// PipeCNN: five convolution stages (conv2, conv4, conv5 grouped as in the
// original network), three max-pool stages and three fully-connected
// layers. Board occupancy models to ~90 ms per inference.
func AlexNet() *CNNSpec {
	return &CNNSpec{
		Name: "alexnet",
		Layers: []Layer{
			{Kind: LayerConv, Name: "conv1", InC: 3, InH: 227, InW: 227, OutC: 96, K: 11, Stride: 4, Pad: 0, Groups: 1, Relu: true},
			{Kind: LayerPool, Name: "pool1", InC: 96, InH: 55, InW: 55, Pool: 3, PoolStride: 2},
			{Kind: LayerConv, Name: "conv2", InC: 96, InH: 27, InW: 27, OutC: 256, K: 5, Stride: 1, Pad: 2, Groups: 2, Relu: true},
			{Kind: LayerPool, Name: "pool2", InC: 256, InH: 27, InW: 27, Pool: 3, PoolStride: 2},
			{Kind: LayerConv, Name: "conv3", InC: 256, InH: 13, InW: 13, OutC: 384, K: 3, Stride: 1, Pad: 1, Groups: 1, Relu: true},
			{Kind: LayerConv, Name: "conv4", InC: 384, InH: 13, InW: 13, OutC: 384, K: 3, Stride: 1, Pad: 1, Groups: 2, Relu: true},
			{Kind: LayerConv, Name: "conv5", InC: 384, InH: 13, InW: 13, OutC: 256, K: 3, Stride: 1, Pad: 1, Groups: 2, Relu: true},
			{Kind: LayerPool, Name: "pool5", InC: 256, InH: 13, InW: 13, Pool: 3, PoolStride: 2},
			{Kind: LayerFC, Name: "fc6", InN: 256 * 6 * 6, OutN: 4096, Relu: true},
			{Kind: LayerFC, Name: "fc7", InN: 4096, OutN: 4096, Relu: true},
			{Kind: LayerFC, Name: "fc8", InN: 4096, OutN: 1000},
		},
	}
}

// TinyCNN returns a reduced network with the same layer mix as AlexNet,
// small enough that its real software computation runs in microseconds.
// Tests and the live inference example use it.
func TinyCNN() *CNNSpec {
	return &CNNSpec{
		Name: "tinycnn",
		Layers: []Layer{
			{Kind: LayerConv, Name: "conv1", InC: 3, InH: 16, InW: 16, OutC: 8, K: 3, Stride: 1, Pad: 1, Groups: 1, Relu: true},
			{Kind: LayerPool, Name: "pool1", InC: 8, InH: 16, InW: 16, Pool: 2, PoolStride: 2},
			{Kind: LayerConv, Name: "conv2", InC: 8, InH: 8, InW: 8, OutC: 16, K: 3, Stride: 1, Pad: 1, Groups: 2, Relu: true},
			{Kind: LayerPool, Name: "pool2", InC: 16, InH: 8, InW: 8, Pool: 2, PoolStride: 2},
			{Kind: LayerFC, Name: "fc3", InN: 16 * 4 * 4, OutN: 10},
		},
	}
}
