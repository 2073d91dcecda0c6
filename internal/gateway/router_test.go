package gateway

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testEP is one synthetic endpoint of a view built directly for router
// tests.
type testEP struct {
	uid      string
	inflight int64
}

type testEndpoints []testEP

func (t testEndpoints) Len() int             { return len(t) }
func (t testEndpoints) Inflight(i int) int64 { return t[i].inflight }

// pickUID runs one pick and returns the chosen endpoint's UID.
func pickUID(t *testing.T, r *Router, eps testEndpoints, rot *Rotation) string {
	t.Helper()
	i := r.Pick(eps, rot)
	if i < 0 {
		t.Fatalf("%s picked nothing from %d endpoints", r.Name(), len(eps))
	}
	return eps[i].uid
}

func TestNewRouterNames(t *testing.T) {
	for _, name := range append([]string{""}, RouterNames...) {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", name, err)
		}
		if name != "" && r.Name() != name {
			t.Fatalf("NewRouter(%q).Name() = %q", name, r.Name())
		}
		var rot Rotation
		if i := r.Pick(testEndpoints{}, &rot); i != -1 {
			t.Fatalf("%s picked %d from no endpoints", r.Name(), i)
		}
	}
	// A deleted router's name is rejected like any unknown one, with an
	// error that lists the remaining choices.
	for _, name := range []string{"bogus", "locality", "weighted"} {
		_, err := NewRouter(name)
		if err == nil || !strings.Contains(err.Error(), "(want roundrobin|least-inflight)") {
			t.Errorf("NewRouter(%q) error = %v; want one naming roundrobin|least-inflight", name, err)
		}
	}
}

func TestLeastInflightPicksIdlest(t *testing.T) {
	eps := testEndpoints{{"a", 5}, {"b", 1}, {"c", 3}}
	r, _ := NewRouter(RouterLeastInflight)
	var rot Rotation
	for i := 0; i < 4; i++ {
		if uid := pickUID(t, r, eps, &rot); uid != "b" {
			t.Fatalf("pick %d = %q, want b (lowest inflight)", i, uid)
		}
	}
	// Ties rotate: with everyone equal, repeated picks spread.
	for i := range eps {
		eps[i].inflight = 0
	}
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[pickUID(t, r, eps, &rot)]++
	}
	if len(seen) != 3 {
		t.Fatalf("tied endpoints not rotated: %v", seen)
	}
}

// TestPickAllocatesNothing holds every policy to zero allocations per
// pick on the gateway's own view, the path serveFunction takes under
// fs.mu.
func TestPickAllocatesNothing(t *testing.T) {
	fs := &funcState{}
	for i, node := range []string{"n1", "n2", "n2"} {
		es := &epState{uid: string(rune('a' + i)), node: node}
		es.inflight.Store(int64(i))
		fs.ready = append(fs.ready, es)
	}
	for _, name := range RouterNames {
		r, _ := NewRouter(name)
		if n := testing.AllocsPerRun(100, func() { pickOn(fs, r) }); n != 0 {
			t.Errorf("%s: %.1f allocations per pick, want 0", name, n)
		}
	}
}

// pickOn routes one request on a live function the way serveFunction
// does: under fs.mu, over the function's own view and rotation.
func pickOn(fs *funcState, r *Router) *epState {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if i := r.Pick(fs, &fs.rot); i >= 0 {
		return fs.ready[i]
	}
	return nil
}

// nextRR is one round-robin pick on a live function's rotation.
func nextRR(fs *funcState) *epState { return pickOn(fs, roundRobin) }

// TestRoundRobinCursorSurvivesRemoval is the rotation regression: with the
// old modulo counter, removing an endpoint behind the cursor skipped the
// next endpoint and re-served an already-served one before the cycle
// completed.
func TestRoundRobinCursorSurvivesRemoval(t *testing.T) {
	g, cl := startGateway(t)
	if err := g.Deploy("rr", 4, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "rr", 4)

	g.mu.Lock()
	fs := g.funcs["rr"]
	g.mu.Unlock()
	var order []string
	fs.mu.Lock()
	for _, es := range fs.ready {
		order = append(order, es.uid)
	}
	fs.mu.Unlock()

	// Serve the first two endpoints of the cycle.
	if got := nextRR(fs).uid; got != order[0] {
		t.Fatalf("pick 1 = %s, want %s", got, order[0])
	}
	if got := nextRR(fs).uid; got != order[1] {
		t.Fatalf("pick 2 = %s, want %s", got, order[1])
	}

	// Remove the already-served head mid-cycle.
	if err := cl.DeleteInstance(order[0]); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "rr", 3)

	// The not-yet-served endpoints must complete the cycle before anyone
	// repeats: order[2], order[3], and only then back to order[1].
	for i, want := range []string{order[2], order[3], order[1]} {
		if got := nextRR(fs).uid; got != want {
			t.Fatalf("post-removal pick %d = %s, want %s", i, got, want)
		}
	}
}

// TestRoundRobinUnderChurn hammers the rotation while replicas come and
// go; every request must land on some live endpoint (no nil picks, no
// errors) with the race detector watching the cursor.
func TestRoundRobinUnderChurn(t *testing.T) {
	g, _ := startGateway(t)
	if err := g.Deploy("churn", 2, echoFactory(nil)); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, g, "churn", 2)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sizes := []int{4, 1, 3, 2, 5, 1, 2}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := g.Scale("churn", sizes[i%len(sizes)]); err != nil {
				t.Errorf("scale: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				resp, err := srv.Client().Get(srv.URL + "/function/churn")
				if err != nil {
					t.Errorf("request: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("status %d during churn", resp.StatusCode)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := g.Stats("churn"); st.Errors != 0 {
		t.Fatalf("errors under churn: %+v", st)
	}
}
