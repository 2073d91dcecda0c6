package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blastfunction/internal/cluster"
	"blastfunction/internal/logx"
)

// echoFactory builds endpoints that answer with the instance name; closed
// endpoints are counted.
func echoFactory(closed *atomic.Int32) Factory {
	return func(in cluster.Instance) (Endpoint, error) {
		name := in.Name
		return HandlerEndpoint{
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, name)
			}),
			CloseFunc: func() error {
				if closed != nil {
					closed.Add(1)
				}
				return nil
			},
		}, nil
	}
}

// startGateway builds a cluster + gateway with a trivial binder that
// schedules pending instances onto node "X" (standing in for the
// Registry's controller).
func startGateway(t *testing.T) (*Gateway, *cluster.Cluster) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	g, cl, _ := runGateway(t, ctx)
	return g, cl
}

// runGateway is startGateway until ctx ends; the channel closes once Run
// has returned.
func runGateway(t *testing.T, ctx context.Context) (*Gateway, *cluster.Cluster, <-chan struct{}) {
	t.Helper()
	cl := cluster.New()
	if err := cl.AddNode(cluster.Node{Name: "X"}); err != nil {
		t.Fatal(err)
	}
	g := New(cl)
	g.Log = logx.NewLogf("gateway", t.Logf)
	ran := make(chan struct{})
	go func() {
		g.Run(ctx)
		close(ran)
	}()
	// Minimal scheduler: bind anything pending.
	go func() {
		events, cancelW := cl.Watch(64)
		defer cancelW()
		node := "X"
		for {
			select {
			case <-ctx.Done():
				return
			case ev, ok := <-events:
				if !ok {
					return
				}
				if ev.Type == cluster.Added && ev.Instance.Phase == cluster.Pending {
					cl.PatchInstance(ev.Instance.UID, cluster.Patch{Node: &node})
				}
			}
		}
	}()
	return g, cl, ran
}

// Stopping the gateway closes every ready endpoint, so no instance's
// teardown (its Remote Library's connection and shared-memory segment)
// outlives Run.
func TestRunClosesEndpointsWhenStopped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g, _, ran := runGateway(t, ctx)
	var closed atomic.Int32
	if err := g.Deploy("echo", 3, echoFactory(&closed)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 3)
	cancel()
	<-ran
	if n := closed.Load(); n != 3 {
		t.Fatalf("stopping the gateway closed %d of 3 endpoints", n)
	}
	if n := g.ReadyReplicas("echo"); n != 0 {
		t.Fatalf("%d endpoints still ready after Run returned", n)
	}
}

func waitReplicas(t *testing.T, g *Gateway, fn string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if g.ReadyReplicas(fn) == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("function %q never reached %d replicas (have %d)", fn, n, g.ReadyReplicas(fn))
}

func TestDeployAndInvoke(t *testing.T) {
	g, _ := startGateway(t)
	if err := g.Deploy("echo", 2, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "echo", 2)

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		resp, err := srv.Client().Get(srv.URL + "/function/echo")
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 64)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		seen[string(body[:n])]++
	}
	if len(seen) != 2 {
		t.Fatalf("round robin hit %d instances, want 2: %v", len(seen), seen)
	}
	for name, count := range seen {
		if count != 3 {
			t.Fatalf("instance %q served %d/6", name, count)
		}
	}
	st := g.Stats("echo")
	if st.Requests != 6 || st.Errors != 0 || st.Replicas != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvokeUnknownAndUnready(t *testing.T) {
	g, _ := startGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, _ := srv.Client().Get(srv.URL + "/function/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost = %v", resp.Status)
	}
	// Deployed but factory never ran (no instances yet): 503.
	g.Deploy("pending", 1, func(in cluster.Instance) (Endpoint, error) {
		return nil, fmt.Errorf("not yet")
	})
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		resp, _ = srv.Client().Get(srv.URL + "/function/pending")
		if resp.StatusCode == http.StatusServiceUnavailable {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pending function = %v, want 503", resp.Status)
}

func TestScaleUpAndDown(t *testing.T) {
	var closed atomic.Int32
	g, cl := startGateway(t)
	if err := g.Deploy("svc", 1, echoFactory(&closed)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "svc", 1)
	if err := g.Scale("svc", 3); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "svc", 3)
	if got := len(cl.Instances("svc")); got != 3 {
		t.Fatalf("cluster instances = %d", got)
	}
	if err := g.Scale("svc", 1); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "svc", 1)
	deadline := time.Now().Add(time.Second)
	for closed.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if closed.Load() != 2 {
		t.Fatalf("closed endpoints = %d, want 2", closed.Load())
	}
	if err := g.Scale("ghost", 1); err == nil {
		t.Fatal("scaling unknown function must fail")
	}
	if err := g.Scale("svc", -1); err == nil {
		t.Fatal("negative scale must fail")
	}
}

func TestDeployValidation(t *testing.T) {
	g, _ := startGateway(t)
	if err := g.Deploy("", 1, echoFactory(nil)); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := g.Deploy("x", 0, echoFactory(nil)); err == nil {
		t.Fatal("zero replicas must fail")
	}
	if err := g.Deploy("dup", 1, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	if err := g.Deploy("dup", 1, echoFactory(nil)); err == nil {
		t.Fatal("duplicate deploy must fail")
	}
}

func TestErrorsCounted(t *testing.T) {
	g, _ := startGateway(t)
	g.Deploy("failing", 1, func(in cluster.Instance) (Endpoint, error) {
		return HandlerEndpoint{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		})}, nil
	})
	waitReplicas(t, g, "failing", 1)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	srv.Client().Get(srv.URL + "/function/failing")
	st := g.Stats("failing")
	if st.Requests != 1 || st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSystemFunctionsEndpoint(t *testing.T) {
	g, _ := startGateway(t)
	g.Deploy("listed", 1, echoFactory(nil))
	waitReplicas(t, g, "listed", 1)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/system/functions")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("system endpoint: %v %v", resp.Status, err)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if want := "listed"; !strings.Contains(string(buf[:n]), want) {
		t.Fatalf("listing missing %q:\n%s", want, buf[:n])
	}
}

func TestAutoscaleScalesOutUnderLoad(t *testing.T) {
	g, _ := startGateway(t)
	block := make(chan struct{})
	g.Deploy("busy", 1, func(in cluster.Instance) (Endpoint, error) {
		return HandlerEndpoint{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-block
		})}, nil
	})
	waitReplicas(t, g, "busy", 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go g.Autoscale(ctx, AutoscaleConfig{
		Function:       "busy",
		Min:            1,
		Max:            3,
		TargetInFlight: 1,
		Interval:       10 * time.Millisecond,
	})

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	// Saturate the single replica with parked requests.
	for i := 0; i < 6; i++ {
		go srv.Client().Get(srv.URL + "/function/busy")
	}
	deadline := time.Now().Add(3 * time.Second)
	for g.ReadyReplicas("busy") < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	scaledOut := g.ReadyReplicas("busy")
	close(block) // release the parked requests
	if scaledOut < 2 {
		t.Fatalf("autoscaler never scaled out (replicas = %d)", scaledOut)
	}
	// Load gone: scale back in to the floor.
	deadline = time.Now().Add(3 * time.Second)
	for g.ReadyReplicas("busy") > 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := g.ReadyReplicas("busy"); got != 1 {
		t.Fatalf("autoscaler did not scale in (replicas = %d)", got)
	}
}

func TestAutoscaleEnforcesFloor(t *testing.T) {
	g, _ := startGateway(t)
	g.Deploy("floor", 1, echoFactory(nil))
	waitReplicas(t, g, "floor", 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go g.Autoscale(ctx, AutoscaleConfig{Function: "floor", Min: 2, Max: 4,
		TargetInFlight: 10, Interval: 10 * time.Millisecond})
	waitReplicas(t, g, "floor", 2)
}

func TestFactoryRetriesTransientFailures(t *testing.T) {
	g, _ := startGateway(t)
	g.RetryDelay = 5 * time.Millisecond
	var attempts atomic.Int32
	g.Deploy("flaky", 1, func(in cluster.Instance) (Endpoint, error) {
		if attempts.Add(1) < 3 {
			return nil, fmt.Errorf("manager not up yet")
		}
		return echoFactory(nil)(in)
	})
	waitReplicas(t, g, "flaky", 1)
	if got := attempts.Load(); got != 3 {
		t.Fatalf("factory attempts = %d, want 3", got)
	}
}

func TestFactoryRetryAbandonsDeletedInstance(t *testing.T) {
	g, cl := startGateway(t)
	g.RetryDelay = 5 * time.Millisecond
	var attempts atomic.Int32
	g.Deploy("doomed", 1, func(in cluster.Instance) (Endpoint, error) {
		attempts.Add(1)
		return nil, fmt.Errorf("never works")
	})
	// Wait for the first attempt, then delete the instance; retries must
	// stop well before the cap.
	deadline := time.Now().Add(time.Second)
	for attempts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, in := range cl.Instances("doomed") {
		cl.DeleteInstance(in.UID)
	}
	time.Sleep(100 * time.Millisecond)
	if got := attempts.Load(); got >= 5 {
		t.Fatalf("retries did not stop after deletion (%d attempts)", got)
	}
	if g.ReadyReplicas("doomed") != 0 {
		t.Fatal("doomed function must have no replicas")
	}
}
