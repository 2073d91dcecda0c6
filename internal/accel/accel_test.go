package accel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"blastfunction/internal/fpga"
	"blastfunction/internal/model"
	"blastfunction/internal/ocl"
)

// fakeMem is an in-memory MemAccess for kernel unit tests.
type fakeMem map[uint64][]byte

func (m fakeMem) Bytes(id uint64) ([]byte, error) {
	b, ok := m[id]
	if !ok {
		return nil, ocl.Errf(ocl.ErrInvalidMemObject, "buffer %d", id)
	}
	return b, nil
}

func i32(t *testing.T, v int) ocl.Arg {
	t.Helper()
	a, err := ocl.PackArg(int32(v))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// --- Sobel ---

func sobelRef(img []uint16, w, h, x, y int) uint16 {
	if x == 0 || y == 0 || x == w-1 || y == h-1 {
		return 0
	}
	p := func(dx, dy int) int32 { return int32(img[(y+dy)*w+x+dx]) }
	gx := -p(-1, -1) + p(1, -1) - 2*p(-1, 0) + 2*p(1, 0) - p(-1, 1) + p(1, 1)
	gy := -p(-1, -1) - 2*p(0, -1) - p(1, -1) + p(-1, 1) + 2*p(0, 1) + p(1, 1)
	mag := math.Sqrt(float64(gx)*float64(gx) + float64(gy)*float64(gy))
	if mag > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(mag)
}

func TestSobelCorrectness(t *testing.T) {
	const w, h = 17, 11
	rng := rand.New(rand.NewSource(7))
	img := make([]uint16, w*h)
	for i := range img {
		img[i] = uint16(rng.Intn(1 << 16))
	}
	in := make([]byte, w*h*2)
	for i, v := range img {
		binary.LittleEndian.PutUint16(in[i*2:], v)
	}
	mem := fakeMem{1: in, 2: make([]byte, w*h*2)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), i32(t, w), i32(t, h)}
	if err := sobelRun(mem, args, nil); err != nil {
		t.Fatalf("sobelRun: %v", err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			got := binary.LittleEndian.Uint16(mem[2][(y*w+x)*2:])
			want := sobelRef(img, w, h, x, y)
			if got != want {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestSobelEdgeDetectsStep(t *testing.T) {
	// A vertical step edge must produce a strong response along the edge
	// and zero in flat regions.
	const w, h = 8, 8
	in := make([]byte, w*h*2)
	for y := 0; y < h; y++ {
		for x := w / 2; x < w; x++ {
			binary.LittleEndian.PutUint16(in[(y*w+x)*2:], 1000)
		}
	}
	mem := fakeMem{1: in, 2: make([]byte, w*h*2)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), i32(t, w), i32(t, h)}
	if err := sobelRun(mem, args, nil); err != nil {
		t.Fatal(err)
	}
	edge := binary.LittleEndian.Uint16(mem[2][(3*w+w/2)*2:])
	flat := binary.LittleEndian.Uint16(mem[2][(3*w+1)*2:])
	if edge == 0 {
		t.Fatal("no response on the step edge")
	}
	if flat != 0 {
		t.Fatalf("flat region response = %d", flat)
	}
}

func TestSobelValidation(t *testing.T) {
	mem := fakeMem{1: make([]byte, 8), 2: make([]byte, 8)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), i32(t, 0), i32(t, 2)}
	if err := sobelRun(mem, args, nil); ocl.StatusOf(err) != ocl.ErrInvalidKernelArgs {
		t.Fatalf("zero width err = %v", err)
	}
	args = []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), i32(t, 100), i32(t, 100)}
	if err := sobelRun(mem, args, nil); ocl.StatusOf(err) != ocl.ErrInvalidBufferSize {
		t.Fatalf("small buffer err = %v", err)
	}
}

func TestSobelModelCalibration(t *testing.T) {
	// Native RTT = write + kernel + read must land near the paper's
	// measurements: 0.27 ms at 10x10, 14.53 ms at 1920x1080.
	m := model.WorkerNode()
	rtt := func(w, h int) time.Duration {
		n := SobelImageBytes(w, h)
		return m.PCIeTransfer(n) + SobelModel(int64(w)*int64(h)) + m.PCIeTransfer(n)
	}
	small := rtt(10, 10)
	if small < 200*time.Microsecond || small > 350*time.Microsecond {
		t.Fatalf("10x10 native RTT = %v, want ~270us", small)
	}
	large := rtt(1920, 1080)
	if large < 13500*time.Microsecond || large > 15500*time.Microsecond {
		t.Fatalf("1080p native RTT = %v, want ~14.53ms", large)
	}
}

// --- MM ---

func mmRef(a, b []float32, n int) []float32 {
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}

func TestMMCorrectness(t *testing.T) {
	const n = 13
	rng := rand.New(rand.NewSource(11))
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
		b[i] = rng.Float32()*2 - 1
	}
	abuf := make([]byte, n*n*4)
	bbuf := make([]byte, n*n*4)
	PutFloat32Slice(abuf, a)
	PutFloat32Slice(bbuf, b)
	mem := fakeMem{1: abuf, 2: bbuf, 3: make([]byte, n*n*4)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), ocl.BufferArg(3), i32(t, n)}
	if err := mmRun(mem, args, nil); err != nil {
		t.Fatalf("mmRun: %v", err)
	}
	got := Float32Slice(mem[3])
	want := mmRef(a, b, n)
	for i := range want {
		if diff := math.Abs(float64(got[i] - want[i])); diff > 1e-4 {
			t.Fatalf("C[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMMIdentityProperty(t *testing.T) {
	// A x I == A for random matrices.
	if err := quick.Check(func(seed int64) bool {
		const n = 8
		rng := rand.New(rand.NewSource(seed))
		a := make([]float32, n*n)
		for i := range a {
			a[i] = rng.Float32()
		}
		id := make([]float32, n*n)
		for i := 0; i < n; i++ {
			id[i*n+i] = 1
		}
		abuf := make([]byte, n*n*4)
		ibuf := make([]byte, n*n*4)
		PutFloat32Slice(abuf, a)
		PutFloat32Slice(ibuf, id)
		mem := fakeMem{1: abuf, 2: ibuf, 3: make([]byte, n*n*4)}
		n32, _ := ocl.PackArg(int32(n))
		args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), ocl.BufferArg(3), n32}
		if err := mmRun(mem, args, nil); err != nil {
			return false
		}
		got := Float32Slice(mem[3])
		for i := range a {
			if got[i] != a[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMMValidation(t *testing.T) {
	mem := fakeMem{1: make([]byte, 16), 2: make([]byte, 16), 3: make([]byte, 16)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), ocl.BufferArg(3), i32(t, -1)}
	if err := mmRun(mem, args, nil); ocl.StatusOf(err) != ocl.ErrInvalidKernelArgs {
		t.Fatalf("negative n err = %v", err)
	}
	args[3] = i32(t, 64)
	if err := mmRun(mem, args, nil); ocl.StatusOf(err) != ocl.ErrInvalidBufferSize {
		t.Fatalf("small buffer err = %v", err)
	}
}

func TestMMModelCalibration(t *testing.T) {
	// Native RTT: 0.45 ms at n=16, 3.571 s at n=4096 (paper Fig. 4c).
	m := model.WorkerNode()
	rtt := func(n int) time.Duration {
		mb := MMMatrixBytes(n)
		return m.PCIeTransfer(mb) + m.PCIeTransfer(mb) + MMModel(int64(n)) + m.PCIeTransfer(mb)
	}
	small := rtt(16)
	if small < 400*time.Microsecond || small > 500*time.Microsecond {
		t.Fatalf("16x16 native RTT = %v, want ~450us", small)
	}
	large := rtt(4096)
	if large < 3450*time.Millisecond || large > 3700*time.Millisecond {
		t.Fatalf("4096 native RTT = %v, want ~3.571s", large)
	}
}

// --- PipeCNN ---

func TestConvKnownResult(t *testing.T) {
	// 1 input channel 3x3 of ones, one 3x3 kernel of ones, pad 1:
	// center output = 9, corner = 4, edge middle = 6.
	in := make([]float32, 9)
	for i := range in {
		in[i] = 1
	}
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	inB := make([]byte, 36)
	wB := make([]byte, 36)
	PutFloat32Slice(inB, in)
	PutFloat32Slice(wB, w)
	mem := fakeMem{1: inB, 2: wB, 3: make([]byte, 4), 4: make([]byte, 36)}
	args := []ocl.Arg{
		ocl.BufferArg(1), ocl.BufferArg(2), ocl.BufferArg(3), ocl.BufferArg(4),
		i32(t, 1), i32(t, 3), i32(t, 3), // inC, inH, inW
		i32(t, 1), i32(t, 3), i32(t, 1), i32(t, 1), // outC, k, stride, pad
		i32(t, 1), i32(t, 0), // groups, relu
	}
	if err := convRun(mem, args, nil); err != nil {
		t.Fatalf("convRun: %v", err)
	}
	out := Float32Slice(mem[4])
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %g, want %g (out=%v)", i, out[i], want[i], out)
		}
	}
}

func TestConvGroupsAndRelu(t *testing.T) {
	// Two input channels, two output channels, groups=2, 1x1 kernels:
	// each output channel sees only its own group. Negative weights with
	// relu=1 must clamp to zero.
	in := []float32{2, 2, 2, 2, 3, 3, 3, 3} // ch0=2s, ch1=3s (2x2 maps)
	w := []float32{5, -5}                   // oc0: w=5 on ch0; oc1: w=-5 on ch1
	inB := make([]byte, len(in)*4)
	wB := make([]byte, len(w)*4)
	PutFloat32Slice(inB, in)
	PutFloat32Slice(wB, w)
	mem := fakeMem{1: inB, 2: wB, 3: make([]byte, 8), 4: make([]byte, 32)}
	args := []ocl.Arg{
		ocl.BufferArg(1), ocl.BufferArg(2), ocl.BufferArg(3), ocl.BufferArg(4),
		i32(t, 2), i32(t, 2), i32(t, 2),
		i32(t, 2), i32(t, 1), i32(t, 1), i32(t, 0),
		i32(t, 2), i32(t, 1),
	}
	if err := convRun(mem, args, nil); err != nil {
		t.Fatalf("convRun: %v", err)
	}
	out := Float32Slice(mem[4])
	if out[0] != 10 { // 2*5
		t.Fatalf("group 0 out = %g, want 10", out[0])
	}
	if out[4] != 0 { // 3*-5 clamped by relu
		t.Fatalf("group 1 out = %g, want 0 (relu)", out[4])
	}
}

func TestPoolKnownResult(t *testing.T) {
	in := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	inB := make([]byte, 64)
	PutFloat32Slice(inB, in)
	mem := fakeMem{1: inB, 2: make([]byte, 16)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2),
		i32(t, 1), i32(t, 4), i32(t, 4), i32(t, 2), i32(t, 2)}
	if err := poolRun(mem, args, nil); err != nil {
		t.Fatalf("poolRun: %v", err)
	}
	out := Float32Slice(mem[2])
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pool out = %v, want %v", out, want)
		}
	}
}

func TestFCKnownResult(t *testing.T) {
	in := []float32{1, 2, 3}
	w := []float32{1, 0, 0, 0, 1, 1, -1, -1, -1} // rows per output
	bias := []float32{10, 0, 0}
	inB := make([]byte, 12)
	wB := make([]byte, 36)
	bB := make([]byte, 12)
	PutFloat32Slice(inB, in)
	PutFloat32Slice(wB, w)
	PutFloat32Slice(bB, bias)
	mem := fakeMem{1: inB, 2: wB, 3: bB, 4: make([]byte, 12)}
	args := []ocl.Arg{ocl.BufferArg(1), ocl.BufferArg(2), ocl.BufferArg(3), ocl.BufferArg(4),
		i32(t, 3), i32(t, 3), i32(t, 1)}
	if err := fcRun(mem, args, nil); err != nil {
		t.Fatalf("fcRun: %v", err)
	}
	out := Float32Slice(mem[4])
	want := []float32{11, 5, 0} // last clamps at relu
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("fc out = %v, want %v", out, want)
		}
	}
}

func TestAlexNetSpecDimensions(t *testing.T) {
	spec := AlexNet()
	// Layer outputs must chain: each layer's input dims equal the
	// previous layer's output dims.
	prevC, prevH, prevW := 3, 227, 227
	for _, l := range spec.Layers {
		switch l.Kind {
		case LayerConv, LayerPool:
			if l.InC != prevC || l.InH != prevH || l.InW != prevW {
				t.Fatalf("layer %s input %dx%dx%d, expected %dx%dx%d",
					l.Name, l.InC, l.InH, l.InW, prevC, prevH, prevW)
			}
		case LayerFC:
			if l.InN != prevC*prevH*prevW {
				t.Fatalf("layer %s InN=%d, expected %d", l.Name, l.InN, prevC*prevH*prevW)
			}
		}
		prevC, prevH, prevW = l.OutDims()
	}
	if prevC != 1000 || prevH != 1 || prevW != 1 {
		t.Fatalf("final output %dx%dx%d, want 1000x1x1", prevC, prevH, prevW)
	}
}

func TestAlexNetBoardTimeCalibration(t *testing.T) {
	// One AlexNet inference must occupy the board for ~90 ms so that the
	// native end-to-end latency lands at the paper's 91.7-94.3 ms.
	bt := AlexNet().BoardTime()
	if bt < 85*time.Millisecond || bt > 95*time.Millisecond {
		t.Fatalf("AlexNet board time = %v, want ~90ms", bt)
	}
}

func TestAlexNetMACCount(t *testing.T) {
	var convMACs, fcMACs int64
	for _, l := range AlexNet().Layers {
		switch l.Kind {
		case LayerConv:
			convMACs += l.MACs()
		case LayerFC:
			fcMACs += l.MACs()
		}
	}
	// Grouped AlexNet: ~666M conv MACs, ~58.6M FC MACs.
	if convMACs < 600e6 || convMACs > 700e6 {
		t.Fatalf("conv MACs = %d, want ~666M", convMACs)
	}
	if fcMACs < 55e6 || fcMACs > 62e6 {
		t.Fatalf("fc MACs = %d, want ~58.6M", fcMACs)
	}
}

func TestTinyCNNEndToEndOnBoard(t *testing.T) {
	// Run the whole TinyCNN on a simulated board through the raw kernels,
	// checking the final output is finite and the layer chain is
	// dimensionally consistent.
	cat := Catalog()
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), cat)
	if _, err := board.Configure(PipeCNNBitstream().Binary()); err != nil {
		t.Fatal(err)
	}
	spec := TinyCNN()
	rng := rand.New(rand.NewSource(3))

	alloc := func(n int64) uint64 {
		id, err := board.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	writeRand := func(id uint64, n int64) {
		buf := make([]byte, n)
		vals := make([]float32, n/4)
		for i := range vals {
			vals[i] = rng.Float32()*0.2 - 0.1
		}
		PutFloat32Slice(buf, vals)
		if _, err := board.Write(id, 0, buf); err != nil {
			t.Fatal(err)
		}
	}

	cur := alloc(spec.InputBytes())
	writeRand(cur, spec.InputBytes())
	for _, l := range spec.Layers {
		oc, oh, ow := l.OutDims()
		out := alloc(int64(oc*oh*ow) * 4)
		switch l.Kind {
		case LayerConv:
			w := alloc(l.WeightBytes())
			b := alloc(l.BiasBytes())
			writeRand(w, l.WeightBytes())
			writeRand(b, l.BiasBytes())
			relu := 0
			if l.Relu {
				relu = 1
			}
			args := []ocl.Arg{ocl.BufferArg(cur), ocl.BufferArg(w), ocl.BufferArg(b), ocl.BufferArg(out),
				i32(t, l.InC), i32(t, l.InH), i32(t, l.InW),
				i32(t, l.OutC), i32(t, l.K), i32(t, l.Stride), i32(t, l.Pad),
				i32(t, l.Groups), i32(t, relu)}
			if _, err := board.Run("coreConv", args, nil); err != nil {
				t.Fatalf("layer %s: %v", l.Name, err)
			}
		case LayerPool:
			args := []ocl.Arg{ocl.BufferArg(cur), ocl.BufferArg(out),
				i32(t, l.InC), i32(t, l.InH), i32(t, l.InW), i32(t, l.Pool), i32(t, l.PoolStride)}
			if _, err := board.Run("maxPool", args, nil); err != nil {
				t.Fatalf("layer %s: %v", l.Name, err)
			}
		case LayerFC:
			w := alloc(l.WeightBytes())
			b := alloc(l.BiasBytes())
			writeRand(w, l.WeightBytes())
			writeRand(b, l.BiasBytes())
			relu := 0
			if l.Relu {
				relu = 1
			}
			args := []ocl.Arg{ocl.BufferArg(cur), ocl.BufferArg(w), ocl.BufferArg(b), ocl.BufferArg(out),
				i32(t, l.InN), i32(t, l.OutN), i32(t, relu)}
			if _, err := board.Run("fc", args, nil); err != nil {
				t.Fatalf("layer %s: %v", l.Name, err)
			}
		}
		cur = out
	}
	final := make([]byte, spec.OutputBytes())
	if _, err := board.Read(cur, 0, final); err != nil {
		t.Fatal(err)
	}
	for i, v := range Float32Slice(final) {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("output[%d] = %g", i, v)
		}
	}
}

func TestLoopbackKernel(t *testing.T) {
	cat := Catalog()
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), cat)
	if _, err := board.Configure(LoopbackBitstream().Binary()); err != nil {
		t.Fatal(err)
	}
	in, _ := board.Alloc(64)
	out, _ := board.Alloc(64)
	payload := []byte("loopback payload for fig4a!!")
	if _, err := board.Write(in, 0, payload); err != nil {
		t.Fatal(err)
	}
	args := []ocl.Arg{ocl.BufferArg(in), ocl.BufferArg(out), i32(t, len(payload))}
	if _, err := board.Run("copy", args, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	if _, err := board.Read(out, 0, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(payload) {
		t.Fatalf("loopback = %q", dst)
	}
}

func TestCatalogContents(t *testing.T) {
	cat := Catalog()
	for _, id := range []string{SobelBitstreamID, MMBitstreamID, PipeCNNBitstreamID, LoopbackBitstreamID} {
		if _, err := cat.Lookup(id); err != nil {
			t.Errorf("catalog missing %q: %v", id, err)
		}
	}
}

func TestModelsMonotonic(t *testing.T) {
	if SobelModel(100) >= SobelModel(10000) {
		t.Error("SobelModel must grow with pixels")
	}
	if MMModel(16) >= MMModel(64) {
		t.Error("MMModel must grow with n")
	}
	if ConvModel(1000) >= ConvModel(1000000) {
		t.Error("ConvModel must grow with MACs")
	}
	if FCModel(1000) >= FCModel(100000) {
		t.Error("FCModel must grow with MACs")
	}
	if PoolModel(100) >= PoolModel(100000) {
		t.Error("PoolModel must grow with elements")
	}
}

func TestKernelLaunches(t *testing.T) {
	spec := AlexNet()
	if got := spec.KernelLaunches(); got != 33 {
		t.Fatalf("KernelLaunches = %d, want 33", got)
	}
}
