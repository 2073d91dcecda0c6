package simcluster

import (
	"reflect"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/model"
	"blastfunction/internal/sched"
)

func TestWorkloadDeviceTimes(t *testing.T) {
	w := model.WorkerNode()
	// Sobel 1080p: ~14.5 ms board occupancy (Fig. 4b native).
	sob := SobelWorkload(1920, 1080).DeviceTime(w)
	if sob < 13*time.Millisecond || sob > 16*time.Millisecond {
		t.Fatalf("sobel 1080p device time = %v", sob)
	}
	// MM 512: ~8 ms.
	mm := MMWorkload(512).DeviceTime(w)
	if mm < 6*time.Millisecond || mm > 10*time.Millisecond {
		t.Fatalf("mm 512 device time = %v", mm)
	}
	// AlexNet: ~90 ms.
	cnn := CNNWorkload(accel.AlexNet()).DeviceTime(w)
	if cnn < 85*time.Millisecond || cnn > 97*time.Millisecond {
		t.Fatalf("alexnet device time = %v", cnn)
	}
	// Master node is slower for transfer-heavy workloads.
	if SobelWorkload(1920, 1080).DeviceTime(model.MasterNode()) <= sob {
		t.Fatal("sobel on node A must be slower")
	}
}

func TestRemoteOverheadShapes(t *testing.T) {
	w := model.WorkerNode()
	sob := SobelWorkload(1920, 1080)
	shm := sob.RemoteOverhead(w, model.TransportShm)
	grpc := sob.RemoteOverhead(w, model.TransportGRPC)
	if shm >= grpc {
		t.Fatalf("shm overhead %v must undercut gRPC %v", shm, grpc)
	}
	// Sobel shm: ~2ms control + ~1.2ms copy.
	if shm < 2*time.Millisecond || shm > 5*time.Millisecond {
		t.Fatalf("sobel shm overhead = %v", shm)
	}
	// AlexNet pays per-flush control overhead across many tasks: the
	// paper measures ~35 ms extra.
	cnn := CNNWorkload(accel.AlexNet()).RemoteOverhead(w, model.TransportShm)
	if cnn < 28*time.Millisecond || cnn > 45*time.Millisecond {
		t.Fatalf("alexnet remote overhead = %v, want ~35ms", cnn)
	}
}

func TestTableIRates(t *testing.T) {
	r, err := TableIRates(UseSobel, HighLoad)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{60, 50, 35, 30, 15}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("sobel high = %v", r)
		}
	}
	if _, err := TableIRates(UseAlexNet, LowLoad); err == nil {
		t.Fatal("AlexNet has no low-load configuration")
	}
	if _, err := TableIRates(UseCase("bogus"), LowLoad); err == nil {
		t.Fatal("unknown use case must fail")
	}
}

func TestLowLoadBothSystemsMeetTargets(t *testing.T) {
	for _, build := range []func(UseCase, LoadLevel) (Experiment, error){
		BlastFunctionExperiment, NativeExperiment,
	} {
		exp, err := build(UseSobel, LowLoad)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(exp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Processed < res.Target*0.93 {
			t.Fatalf("low load processed %.1f of %.1f", res.Processed, res.Target)
		}
		for _, fr := range res.Functions {
			if fr.AvgLatency <= 0 {
				t.Fatalf("function %s has no latency", fr.Function)
			}
			if fr.AvgLatency > 60*time.Millisecond {
				t.Fatalf("function %s latency %v too high for low load", fr.Function, fr.AvgLatency)
			}
			if fr.Node == "" {
				t.Fatalf("function %s unplaced", fr.Function)
			}
		}
	}
}

func TestBlastFunctionSpreadsFunctions(t *testing.T) {
	exp, err := BlastFunctionExperiment(UseSobel, MediumLoad)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]int{}
	for _, fr := range res.Functions {
		nodes[fr.Node]++
	}
	if len(nodes) != 3 {
		t.Fatalf("allocation used %d nodes (%v), want all 3", len(nodes), nodes)
	}
	for n, count := range nodes {
		if count > 2 {
			t.Fatalf("node %s hosts %d of 5 functions", n, count)
		}
	}
}

func TestHighLoadBlastFunctionBeatsNative(t *testing.T) {
	// The paper's headline: with 5 shared functions vs 3 pinned ones,
	// BlastFunction achieves higher utilization and processed throughput.
	bf, err := BlastFunctionExperiment(UseSobel, HighLoad)
	if err != nil {
		t.Fatal(err)
	}
	bfRes, err := Run(bf)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := NativeExperiment(UseSobel, HighLoad)
	if err != nil {
		t.Fatal(err)
	}
	natRes, err := Run(nat)
	if err != nil {
		t.Fatal(err)
	}
	if bfRes.Processed <= natRes.Processed {
		t.Fatalf("BF processed %.1f <= native %.1f", bfRes.Processed, natRes.Processed)
	}
	if bfRes.TotalUtilization <= natRes.TotalUtilization {
		t.Fatalf("BF utilization %.1f%% <= native %.1f%%",
			bfRes.TotalUtilization*100, natRes.TotalUtilization*100)
	}
	// Utilization cannot exceed the 300% ceiling (3 boards).
	if bfRes.TotalUtilization > 3.0 {
		t.Fatalf("utilization %.2f exceeds 3 boards", bfRes.TotalUtilization)
	}
	// Latency stays comparable: within 2x of native.
	if bfRes.AvgLatency > 2*natRes.AvgLatency {
		t.Fatalf("BF latency %v vs native %v", bfRes.AvgLatency, natRes.AvgLatency)
	}
}

func TestClosedLoopSaturation(t *testing.T) {
	// One connection cannot exceed 1/latency: sobel-1 at 60 rq/s on a
	// ~21ms end-to-end path processes well below target in both systems,
	// the saturation Table II shows.
	nat, _ := NativeExperiment(UseSobel, HighLoad)
	res, err := Run(nat)
	if err != nil {
		t.Fatal(err)
	}
	f1 := res.Functions[0]
	if f1.Target != 60 {
		t.Fatalf("f1 target = %v", f1.Target)
	}
	if f1.Processed > 45 {
		t.Fatalf("f1 processed %.1f, closed loop must cap near 1/latency", f1.Processed)
	}
	maxRate := 1 / f1.AvgLatency.Seconds()
	if f1.Processed > maxRate*1.05 {
		t.Fatalf("f1 processed %.1f exceeds closed-loop bound %.1f", f1.Processed, maxRate)
	}
}

func TestAlexNetConfigurations(t *testing.T) {
	for _, level := range []LoadLevel{MediumLoad, HighLoad} {
		bf, err := BlastFunctionExperiment(UseAlexNet, level)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(bf)
		if err != nil {
			t.Fatal(err)
		}
		// AlexNet latency lands around the paper's 120-135 ms once the
		// remote control overhead is paid.
		if res.AvgLatency < 100*time.Millisecond || res.AvgLatency > 250*time.Millisecond {
			t.Fatalf("%s alexnet latency = %v", level, res.AvgLatency)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Experiment{}); err == nil {
		t.Fatal("empty experiment must fail")
	}
	exp, _ := BlastFunctionExperiment(UseSobel, LowLoad)
	exp.Functions[0].Node = "Z"
	if _, err := Run(exp); err == nil {
		t.Fatal("unknown pinned node must fail")
	}
}

func TestDeterminism(t *testing.T) {
	exp, _ := BlastFunctionExperiment(UseMM, MediumLoad)
	a, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Processed != b.Processed || a.TotalUtilization != b.TotalUtilization || a.AvgLatency != b.AvgLatency {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Functions {
		if a.Functions[i] != b.Functions[i] {
			t.Fatalf("function %d diverges", i)
		}
	}
}

func TestMixedExperimentTimeSharingSegregates(t *testing.T) {
	exp, err := MixedExperiment(MediumLoad, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	// Time-sharing: Algorithm 1 must never co-locate sobel and mm on the
	// same board (a board holds one bitstream).
	byNode := map[string]map[string]bool{}
	for _, fr := range res.Functions {
		if byNode[fr.Node] == nil {
			byNode[fr.Node] = map[string]bool{}
		}
		kind := "sobel"
		if fr.Function[0] == 'm' {
			kind = "mm"
		}
		byNode[fr.Node][kind] = true
	}
	for node, kinds := range byNode {
		if len(kinds) > 1 {
			t.Fatalf("node %s hosts both accelerators under time-sharing", node)
		}
	}
	if res.Processed <= 0 {
		t.Fatal("no requests processed")
	}
}

func TestMixedExperimentSpaceSharingCoLocates(t *testing.T) {
	exp, err := MixedExperiment(MediumLoad, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(exp)
	if err != nil {
		t.Fatal(err)
	}
	// Space-sharing lifts the affinity constraint: with 6 functions on 3
	// boards and load-aware ordering, at least one board hosts both.
	byNode := map[string]map[string]bool{}
	for _, fr := range res.Functions {
		if byNode[fr.Node] == nil {
			byNode[fr.Node] = map[string]bool{}
		}
		kind := "sobel"
		if fr.Function[0] == 'm' {
			kind = "mm"
		}
		byNode[fr.Node][kind] = true
	}
	coLocated := 0
	for _, kinds := range byNode {
		if len(kinds) > 1 {
			coLocated++
		}
	}
	if coLocated == 0 {
		t.Fatal("space-sharing never co-located the two accelerators")
	}
	// Kernels run slower (area penalty), so latency must exceed the
	// time-shared mixed run's — the trade-off the ablation quantifies.
	tsExp, _ := MixedExperiment(MediumLoad, false)
	tsRes, err := Run(tsExp)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= tsRes.AvgLatency/2 {
		t.Fatalf("space-sharing latency %v implausibly below time-sharing %v",
			res.AvgLatency, tsRes.AvgLatency)
	}
}

func TestOverlapDMANeverHurts(t *testing.T) {
	// Pipelining transfers with compute must not reduce throughput or
	// increase latency: DMA leaves the kernel engine's critical path.
	base, err := BlastFunctionExperiment(UseSobel, HighLoad)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	over := base
	over.OverlapDMA = true
	overlapped, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Processed < serial.Processed*0.99 {
		t.Fatalf("overlap processed %.1f < serialized %.1f", overlapped.Processed, serial.Processed)
	}
	if overlapped.AvgLatency > serial.AvgLatency*101/100 {
		t.Fatalf("overlap latency %v > serialized %v", overlapped.AvgLatency, serial.AvgLatency)
	}
}

// TestExperimentRunsEveryDiscipline runs Table II's high-load Sobel
// scenario and the medium-load space-sharing mix under each discipline
// the manager's queue ships. At the paper's loads the disciplines agree:
// every result must equal fifo's. A name the queue does not know fails
// with the queue's own error.
func TestExperimentRunsEveryDiscipline(t *testing.T) {
	sobel, err := BlastFunctionExperiment(UseSobel, HighLoad)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := MixedExperiment(MediumLoad, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []struct {
		name string
		exp  Experiment
	}{{"sobel-high", sobel}, {"mixed-space-sharing", mixed}} {
		var fifo *Result
		for _, d := range sched.Disciplines {
			exp := base.exp
			exp.Scheduling = d
			res, err := Run(exp)
			if err != nil {
				t.Fatalf("%s under %s: %v", base.name, d, err)
			}
			if fifo == nil {
				fifo = res
			} else if !reflect.DeepEqual(res, fifo) {
				t.Errorf("%s under %s = %+v, want fifo's %+v", base.name, d, res, fifo)
			}
		}
	}
	_, want := sched.New("bogus", sched.Config{})
	sobel.Scheduling = "bogus"
	if _, err := Run(sobel); err == nil || err.Error() != want.Error() {
		t.Fatalf("unknown discipline: err = %v, want %v", err, want)
	}
}
