package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blastfunction/internal/accel"
	"blastfunction/internal/fpga"
	"blastfunction/internal/model"
	"blastfunction/internal/registry"
)

func testBoard() *fpga.Board {
	return fpga.NewBoard(fpga.DE5aNet(model.WorkerNode()), accel.Catalog())
}

// A registry that accepts the connection and never answers fails the
// registration within the bound instead of hanging start-up.
func TestSelfRegisterGivesUpOnSilentRegistry(t *testing.T) {
	silent := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-silent }))
	defer srv.Close()
	defer close(silent) // before Close, which waits for the handler

	done := make(chan error, 1)
	go func() {
		done <- selfRegister(srv.URL, 100*time.Millisecond, "fpga-B", "B", "127.0.0.1:5100", "", testBoard())
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("registration with a silent registry succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("registration with a silent registry still hangs")
	}
}

func TestSelfRegisterAnnouncesTheDevice(t *testing.T) {
	reg, err := registry.New(registry.DefaultPolicy(nil))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	if err := selfRegister(srv.URL, time.Second, "fpga-B", "B", "127.0.0.1:5100", "http://127.0.0.1:5101/metrics", testBoard()); err != nil {
		t.Fatal(err)
	}
	devs := reg.Devices()
	if len(devs) != 1 || devs[0].ID != "fpga-B" || devs[0].Node != "B" || devs[0].ManagerAddr != "127.0.0.1:5100" {
		t.Fatalf("registry holds %+v", devs)
	}
}
