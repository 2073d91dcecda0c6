package simcluster

// End-to-end distributed-tracing test: a write -> copy-kernel -> read task
// runs through a real Remote Library <-> Device Manager pair, and the
// flights the two processes record for it must share one trace ID and
// decompose the call end to end — the library's wire-send upload and
// client-observed total, the manager's central-queue wait, each board
// operation, device execution and notification delivery.

import (
	"testing"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/manager"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
)

// sampledFlight returns the one sampled task flight in a library's
// recorder (its session flight is synthetic).
func sampledFlight(t *testing.T, rec *flightrec.Recorder) obs.TraceID {
	t.Helper()
	var trace obs.TraceID
	for _, f := range rec.Snapshot().Flights {
		if f.Synthetic {
			continue
		}
		if trace != 0 {
			t.Fatalf("library holds sampled flights %s and %s, want one", trace, f.Trace)
		}
		trace = f.Trace
	}
	if trace == 0 {
		t.Fatal("the library recorded no sampled flight at sample rate 1")
	}
	return trace
}

func TestTraceEndToEnd(t *testing.T) {
	rig := newChaosRig(t, manager.Config{DeviceID: "trace-A"})
	defer rig.Close()

	libFlight := flightrec.New(flightrec.Config{Process: "library"})
	defer libFlight.Close()
	client, err := remote.Dial(remote.Config{
		ClientName: "trace-client",
		Managers:   []string{rig.Addr},
		Transport:  remote.TransportGRPC,
		Tracer:     obs.New(1),
		Flight:     libFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, q, k := openLoopback(t, client)

	payload := []byte("trace me end to end")
	in, err := ctx.CreateBuffer(ocl.MemReadOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CreateBuffer(ocl.MemWriteOnly, len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, arg := range []any{in, out, int32(len(payload))} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}

	// One flush-formed task: write -> kernel -> read, sealed by Finish.
	if _, err := q.EnqueueWriteBuffer(in, false, 0, payload, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueTask(k, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(payload))
	if _, err := q.EnqueueReadBuffer(out, false, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(payload) {
		t.Fatalf("loopback corrupted payload: %q", dst)
	}

	// One sampled trace ID keys the task's flight in both processes.
	trace := sampledFlight(t, libFlight)
	waitComplete(t, libFlight, trace)
	waitComplete(t, rig.Manager.Flight(), trace)
	lib, _ := libFlight.FlightFor(trace)
	mgr, _ := rig.Manager.Flight().FlightFor(trace)

	count := func(f flightrec.Flight) map[flightrec.Kind]int {
		n := map[flightrec.Kind]int{}
		for _, ev := range f.Events {
			n[ev.Kind]++
		}
		return n
	}
	// Library side: the write's wire-send and the client-observed total.
	libKinds := count(lib)
	if libKinds[flightrec.KindUpload] != 1 || libKinds[flightrec.KindComplete] != 1 {
		t.Errorf("library flight %v, want one upload and one complete\n%+v", libKinds, lib.Events)
	}
	// Manager side: the queue wait, each of the 3 ops, the execution and
	// the notification, continuing the same trace.
	mgrKinds := count(mgr)
	for kind, want := range map[flightrec.Kind]int{flightrec.KindOp: 3,
		flightrec.KindScheduled: 1, flightrec.KindExecute: 1, flightrec.KindNotify: 1} {
		if got := mgrKinds[kind]; got != want {
			t.Errorf("manager %q milestones = %d, want %d\n%+v", kind, got, want, mgr.Events)
		}
	}

	// The client flight covers the call end to end: it opens at the first
	// enqueue and closes after the completion arrived, so every manager
	// milestone starts inside it, and every one that ends before the
	// completion frame is written ends inside it too. The notify and
	// complete milestones end at the manager's stamp just after that
	// write returns, which races the client's receipt of the frame: under
	// -race the client has been seen done first about 1 run in 50.
	done := lib.Events[len(lib.Events)-1]
	start, end := done.Time.Add(-done.Dur), done.Time
	if done.Kind != flightrec.KindComplete || !end.After(start) {
		t.Fatalf("library flight ends with %+v", done)
	}
	for _, ev := range mgr.Events {
		from, to := ev.Time.Add(-ev.Dur), ev.Time
		written := ev.Kind == flightrec.KindNotify || ev.Kind == flightrec.KindComplete
		if from.Before(start) || !from.Before(end) || !written && to.After(end) {
			t.Errorf("manager %s milestone [%v, %v] outside the client flight [%v, %v]",
				ev.Kind, from, to, start, end)
		}
	}
}
