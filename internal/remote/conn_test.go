package remote

import (
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/logx"
	"blastfunction/internal/manager"
	"blastfunction/internal/model"
	"blastfunction/internal/rpc"
)

// libraryGoroutines counts the live goroutines the calling goroutine
// started in the Remote Library and its rpc clients.
func libraryGoroutines(t *testing.T) int {
	t.Helper()
	buf := make([]byte, 64<<10)
	var id uint64
	if _, err := fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %d ", &id); err != nil {
		t.Fatal(err)
	}
	created := regexp.MustCompile(`(?m)^created by blastfunction/internal/(rpc\.NewClient|remote\.\S+) in goroutine ` +
		strconv.FormatUint(id, 10) + `$`)
	all := make([]byte, 8<<20)
	return len(created.FindAll(all[:runtime.Stack(all, true)], -1))
}

// waitGoroutines polls libraryGoroutines until it reads want.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := libraryGoroutines(t)
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d library goroutines, want %d", when, n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A manager connection runs one goroutine, its rpc client's read loop,
// which is also the paper's connection thread, plus the heartbeat when
// the manager grants a lease.
func TestOneGoroutinePerConnection(t *testing.T) {
	a, b := newRig(t), newRig(t)
	board := fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
	mgr := manager.New(manager.Config{Node: "rignode", DeviceID: "leased", LeaseDuration: time.Minute}, board)
	srv := rpc.NewServer(mgr)
	srv.Log = logx.NewLogf("rpc", t.Logf)
	leased, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); mgr.Close() })

	for _, tc := range []struct {
		name     string
		managers []string
		want     int
	}{
		{"two managers", []string{a.addr, b.addr}, 2},
		{"leased", []string{leased}, 2},
	} {
		c, err := Dial(Config{ClientName: t.Name(), Managers: tc.managers, Transport: TransportGRPC})
		if err != nil {
			t.Fatal(err)
		}
		if n := libraryGoroutines(t); n != tc.want {
			t.Errorf("%s: %d library goroutines, want %d", tc.name, n, tc.want)
		}
		c.Close()
		waitGoroutines(t, 0, tc.name+" after Close")
	}
}
