package manager_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"blastfunction/internal/flightrec"
	"blastfunction/internal/manager"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/remote"
	"blastfunction/internal/slo"
)

// taskMilestones are the kinds only a task's own flight carries; a
// session's flight has none of them.
var taskMilestones = []flightrec.Kind{flightrec.KindEnqueued, flightrec.KindScheduled,
	flightrec.KindExecute, flightrec.KindNotify, flightrec.KindFailure}

// taskFlights returns the completed task flights of a tenant.
func taskFlights(mgr *manager.Manager, tenant string) []flightrec.Flight {
	var out []flightrec.Flight
	mgr.Flight().Recent(func(f *flightrec.Flight) bool {
		task, complete := false, false
		for _, ev := range f.Events {
			task = task || slices.Contains(taskMilestones, ev.Kind)
			complete = complete || ev.Kind == flightrec.KindComplete
		}
		if f.Tenant == tenant && task && complete {
			out = append(out, *f)
		}
		return true
	})
	return out
}

func tenantLabels(tenant string) metrics.Labels {
	return metrics.Labels{"device": "d", "node": "n", "tenant": tenant}
}

// A task ends one of four ways: it runs (and succeeds or fails), its
// session's lease has expired when the worker pops it, the lease sweeper
// kills it in the queue, or the closed queue refuses it at Push. Each
// way leaves exactly one flight with the milestones the task reached, in
// order, and counts the task once in bf_tenant_tasks_total and
// bf_task_latency_seconds, and once in failures when it failed.
func TestTaskEndsOneWay(t *testing.T) {
	g := newGatedRig(t, manager.Config{})
	open := func(name string) *gatedTenant { return g.open(t, remote.TransportGRPC, name) }
	holder, ran, failed, popped, queued, refused :=
		open("holder"), open("ran"), open("failed"), open("popped"), open("queued"), open("refused")

	ran.flushTask(t, ran.kernel(t, "nop"))
	if err := ran.q.Finish(); err != nil {
		t.Fatal(err)
	}
	in, err := failed.ctx.CreateBuffer(ocl.MemReadWrite, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed.flushTask(t, failed.kernel(t, "copy", in, in, int32(ocl.ErrInvalidValue)))
	if err := failed.q.Finish(); err == nil {
		t.Fatal("a task whose kernel failed finished without error")
	}

	holder.flushTask(t, holder.kernel(t, "block"))
	<-g.started // the board is busy from here on
	popped.flushTask(t, popped.kernel(t, "nop"))
	popped.settle(t)
	queued.flushTask(t, queued.kernel(t, "nop"))
	queued.settle(t)
	g.mgr.MarkExpired("popped")
	g.mgr.ExpireClient("queued")
	g.gate <- struct{}{}
	if err := holder.q.Finish(); err != nil {
		t.Fatal(err)
	}
	g.mgr.Close() // drains the queue: the popped task has ended
	refused.flushTask(t, refused.kernel(t, "nop"))
	if err := refused.q.Finish(); err == nil {
		t.Fatal("a task flushed to a closed manager finished without error")
	}

	const (
		enq   = flightrec.KindEnqueued
		sched = flightrec.KindScheduled
		exec  = flightrec.KindExecute
		note  = flightrec.KindNotify
		fail  = flightrec.KindFailure
		done  = flightrec.KindComplete
	)
	for _, want := range []struct {
		tenant string
		kinds  []flightrec.Kind
		cause  string
	}{
		{"ran", []flightrec.Kind{enq, sched, exec, note, done}, ""},
		{"failed", []flightrec.Kind{enq, sched, exec, note, fail, done}, "kernel: "},
		{"popped", []flightrec.Kind{enq, sched, fail, done}, "session lease expired"},
		{"queued", []flightrec.Kind{enq, fail, done}, "session lease expired while queued"},
		{"refused", []flightrec.Kind{fail, done}, "manager shutting down"},
	} {
		var flights []flightrec.Flight
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if flights = taskFlights(g.mgr, want.tenant); len(flights) > 0 {
				break
			}
		}
		if len(flights) != 1 {
			t.Errorf("%s: %d task flights, want 1", want.tenant, len(flights))
			continue
		}
		evs := flights[0].Events
		var kinds []flightrec.Kind
		for i, ev := range evs {
			kinds = append(kinds, ev.Kind)
			if i > 0 && ev.Time.Before(evs[i-1].Time) {
				t.Errorf("%s: %s at %v before %s at %v", want.tenant, ev.Kind, ev.Time, evs[i-1].Kind, evs[i-1].Time)
			}
			if ev.Kind == fail && (want.cause == "" || !strings.HasPrefix(ev.Detail, want.cause)) {
				t.Errorf("%s: failure %q, want cause %q", want.tenant, ev.Detail, want.cause)
			}
		}
		if !slices.Equal(kinds, want.kinds) {
			t.Errorf("%s: milestones %v, want %v", want.tenant, kinds, want.kinds)
		}
		if complete := evs[len(evs)-1]; (complete.Detail == "failed") != (want.cause != "") ||
			(complete.Dur > 0) != (want.tenant != "refused") {
			t.Errorf("%s: complete %q with residency %v", want.tenant, complete.Detail, complete.Dur)
		}

		reg, lbl := g.mgr.Metrics(), tenantLabels(want.tenant)
		tasks := reg.Counter("bf_tenant_tasks_total", "", lbl).Value()
		failures := reg.Counter("bf_tenant_task_failures_total", "", lbl).Value()
		latency := reg.Histogram("bf_task_latency_seconds", "", lbl, nil).Count()
		wantFailures := 0.0
		if want.cause != "" {
			wantFailures = 1
		}
		if tasks != 1 || latency != 1 || failures != wantFailures {
			t.Errorf("%s: counted %v tasks, %v failures, %d latencies; want 1, %v, 1",
				want.tenant, tasks, failures, latency, wantFailures)
		}
	}
}

// The availability SLI pairs bf_tenant_tasks_total with
// bf_tenant_task_failures_total, so every task that ends counts in the
// first: a tenant with 10 executed and 10 lease-killed tasks is 50% good.
func TestAvailabilityCountsTasksThatNeverRan(t *testing.T) {
	g := newGatedRig(t, manager.Config{})
	holder := g.open(t, remote.TransportGRPC, "holder")
	mixed := g.open(t, remote.TransportGRPC, "mixed")
	nop := mixed.kernel(t, "nop")

	db := metrics.NewTSDB(time.Hour)
	scrape := func(at time.Time) {
		t.Helper()
		samples, err := metrics.Parse(g.mgr.Metrics().Render())
		if err != nil {
			t.Fatal(err)
		}
		db.Append(at, samples)
	}
	start := time.Unix(1700000000, 0)
	scrape(start)

	const n = 10
	for i := 0; i < n; i++ {
		mixed.flushTask(t, nop)
	}
	if err := mixed.q.Finish(); err != nil {
		t.Fatal(err)
	}
	holder.flushTask(t, holder.kernel(t, "block"))
	<-g.started
	for i := 0; i < n; i++ {
		mixed.flushTask(t, nop)
	}
	mixed.settle(t)
	g.mgr.ExpireClient("mixed")
	g.gate <- struct{}{}

	reg, lbl := g.mgr.Metrics(), tenantLabels("mixed")
	tasks := reg.Counter("bf_tenant_tasks_total", "", lbl).Value()
	failures := reg.Counter("bf_tenant_task_failures_total", "", lbl).Value()
	if tasks != 2*n || failures != n {
		t.Fatalf("%d executed and %d killed tasks counted %v tasks, %v failures", n, n, tasks, failures)
	}
	scrape(start.Add(30 * time.Second))

	eng := slo.NewEngine(db)
	obj, err := slo.ParseObjective("mixed:p99<100ms:99%:1m")
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(obj)
	av := eng.ReportAt(start.Add(30 * time.Second))[0].Availability
	if !av.HasData || av.Total != 2*n || av.Good/av.Total != 0.5 {
		t.Fatalf("availability %v good of %v (data %v), want 0.5 of %d", av.Good, av.Total, av.HasData, 2*n)
	}
}

// A sampled task's manager flight carries one op milestone per board
// operation, each inside its execute milestone, and the task's stages feed
// bf_stage_seconds with its trace as the exemplar. An unsampled task's
// flight carries no op milestone, and a manager that saw only unsampled
// tasks exports no stage series.
func TestSampledTaskMilestonesAndStages(t *testing.T) {
	rig := newRig(t, manager.Config{})
	for _, tracer := range []*obs.Tracer{nil, obs.New(1)} {
		client, err := remote.Dial(remote.Config{ClientName: "traced", Managers: []string{rig.addr},
			Transport: remote.TransportGRPC, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		ctx, dev, q := openDevice(t, client)
		runCopy(t, ctx, q, buildLoopback(t, ctx, dev), make([]byte, 4<<10))
		client.Close()
		if tracer == nil && strings.Contains(rig.mgr.Metrics().Render(), "bf_stage_seconds") {
			t.Error("a manager that saw only unsampled tasks exports bf_stage_seconds")
		}
	}
	flights := waitFlights(t, rig.mgr, "traced", 2)
	var sampled *flightrec.Flight
	for i := range flights {
		ops := 0
		for _, ev := range flights[i].Events {
			if ev.Kind == flightrec.KindOp {
				ops++
			}
		}
		if flights[i].Synthetic {
			if ops != 0 {
				t.Errorf("unsampled task flight carries %d op milestones", ops)
			}
			continue
		}
		sampled = &flights[i]
		if ops != 3 {
			t.Errorf("sampled task flight carries %d op milestones, want 3: %+v", ops, flights[i].Events)
		}
	}
	if sampled == nil {
		t.Fatal("no sampled task flight")
	}
	i := slices.IndexFunc(sampled.Events, func(ev flightrec.Event) bool { return ev.Kind == flightrec.KindExecute })
	if i < 0 {
		t.Fatalf("sampled flight has no execute milestone: %+v", sampled.Events)
	}
	exec := sampled.Events[i]
	var kinds []string
	for _, ev := range sampled.Events {
		if ev.Kind != flightrec.KindOp {
			continue
		}
		kinds = append(kinds, ev.Detail)
		if ev.Time.Add(-ev.Dur).Before(exec.Time.Add(-exec.Dur)) || ev.Time.After(exec.Time) {
			t.Errorf("op %s [%v, %v] outside execute [%v, %v]", ev.Detail,
				ev.Time.Add(-ev.Dur), ev.Time, exec.Time.Add(-exec.Dur), exec.Time)
		}
	}
	if !slices.Equal(kinds, []string{"write", "kernel", "read"}) {
		t.Errorf("op milestones %v, want write, kernel, read", kinds)
	}

	text := rig.mgr.Metrics().Render()
	for _, stage := range []string{"queue-wait", "execute", "op", "notify"} {
		if !strings.Contains(text, `stage="`+stage+`"`) {
			t.Errorf("exposition lacks bf_stage_seconds{stage=%q}", stage)
		}
	}
	if !strings.Contains(text, `component="manager"`) || !strings.Contains(text, `trace_id="`+sampled.Trace.String()+`"`) {
		t.Errorf("bf_stage_seconds lacks its component label or the sampled trace's exemplar:\n%s", text)
	}
}

// waitFlights polls until a tenant has n completed task flights: a flight
// completes just after its completion frame is written.
func waitFlights(t *testing.T, mgr *manager.Manager, tenant string, n int) []flightrec.Flight {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if fs := taskFlights(mgr, tenant); len(fs) >= n || time.Now().After(deadline) {
			if len(fs) != n {
				t.Fatalf("%d task flights for %s, want %d", len(fs), tenant, n)
			}
			return fs
		}
	}
}
