package stack

import (
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"blastfunction/internal/manager"
)

// A node whose RPC port is taken fails to start and leaves nothing
// running: the manager it built (worker, lease sweeper, flash service)
// is closed again.
func TestNewNodeOnBusyPortLeaksNothing(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	before := runtime.NumGoroutine()
	_, err = NewNode(NodeConfig{
		Manager: manager.Config{Node: "busy", DeviceID: "fpga-busy", LeaseDuration: time.Minute},
		Listen:  busy.Addr().String(),
	})
	if err == nil {
		t.Fatal("a node listening on a busy port started")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the failed start, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNodeServesItsRoutes(t *testing.T) {
	n, err := NewNode(NodeConfig{Manager: manager.Config{Node: "B", DeviceID: "fpga-B"}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/tasks", "/debug/sched", "/debug/cache", "/debug/flash", "/debug/flight"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %s, want 200", path, resp.Status)
		}
	}
}
