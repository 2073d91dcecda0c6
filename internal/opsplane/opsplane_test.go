package opsplane

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"blastfunction/internal/registry"
)

func newTestProcess(t *testing.T) *Process {
	t.Helper()
	p := New("opsplane-test", "test", Flags{LogLevel: "error", LogRing: 64})
	t.Cleanup(p.cancel)
	return p
}

// startRun listens on a loopback port and runs p until the returned
// stop sends the process SIGTERM; stop waits for Run to return. The
// signal is only sent once a request has been served, so Run's handler
// is installed and the test binary is never killed by it.
func startRun(t *testing.T, p *Process) (base string, done <-chan struct{}, stop func()) {
	t.Helper()
	p.Listen("127.0.0.1:0")
	base = "http://" + p.ln.Addr().String()
	ran := make(chan struct{})
	go func() { defer close(ran); p.Run() }()
	resp, err := http.Get(base + "/debug/logs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A test may call stop from its own goroutine before the cleanup
	// calls it again; the Once keeps the signal single and race-free.
	var kill sync.Once
	stop = func() {
		kill.Do(func() {
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		})
		select {
		case <-ran:
		case <-time.After(ShutdownGrace + 5*time.Second):
			t.Fatal("Run did not return after SIGTERM")
		}
	}
	t.Cleanup(stop)
	return base, ran, stop
}

func TestSlowHeadersAreCut(t *testing.T) {
	old := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = old }) // after Run has returned

	p := newTestProcess(t)
	base, _, _ := startRun(t, p)
	conn, err := net.Dial("tcp", base[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /debug/lo")); err != nil { // half a request line
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server held a half-sent request open past its header timeout")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("connection closed after %v", waited)
	}
}

func TestRunDrainsInFlightRequests(t *testing.T) {
	p := newTestProcess(t)
	entered, release := make(chan struct{}), make(chan struct{})
	p.Mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	base, ran, stop := startRun(t, p)

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			got <- 0
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-entered
	go stop()
	select {
	case <-ran:
		t.Fatal("Run returned while a request was in flight")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if code := <-got; code != http.StatusOK {
		t.Fatalf("in-flight request = %d, want 200", code)
	}
	<-ran
	if p.Context().Err() == nil {
		t.Fatal("background context still live after Run returned")
	}
}

func TestMonitorRoutesAndDeviceSync(t *testing.T) {
	p := newTestProcess(t)
	m, err := NewMonitor(p, MonitorConfig{Scrape: time.Hour, AlertInterval: time.Hour, Grace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	if err := m.Registry.RegisterDevice(registry.Device{ID: "fpga-B", Node: "B", ManagerAddr: "127.0.0.1:1", MetricsURL: down.URL + "/metrics"}); err != nil {
		t.Fatal(err)
	}
	m.Start()
	if targets := m.scraper.Targets(); len(targets) != 1 || targets[0] != "fpga-B" {
		t.Fatalf("targets after the first sync = %v, want [fpga-B]", targets)
	}
	m.scraper.ScrapeOnce()
	m.syncDevices()
	if m.Registry.DeviceHealthy("fpga-B") {
		t.Fatal("an unreachable device must sync as unhealthy")
	}

	srv := httptest.NewServer(p.Mux)
	defer srv.Close()
	for _, path := range []string{"/debug/logs", "/debug/pprof/", "/debug/alerts", "/debug/slo", "/debug/flash", "/metrics"} {
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
