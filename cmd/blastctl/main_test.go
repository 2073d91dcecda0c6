package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// managerJSON is a device manager's canned debug surface.
var managerJSON = map[string]string{
	"/debug/tasks": `[
		{"seq":7,"client":"sobel-1-1","ops":4,"device_ns":2500000,"queue_wait_ns":1000000,"failed":false,"completed_at":"12:00:01.000"},
		{"seq":8,"client":"mm-1-1","ops":3,"device_ns":40000000,"queue_wait_ns":9000000,"failed":true,"completed_at":"12:00:02.500"},
		{"seq":9,"client":"sobel-1-1","ops":4,"device_ns":2600000,"queue_wait_ns":3000000,"failed":false,"completed_at":"12:00:03.000"}]`,
	"/debug/sched": `{"discipline":"drr","depth":2,"tenants":[
		{"tenant":"sobel-1-1","weight":3,"depth":1,"popped":2,"max_wait_ns":3000000,"device_ns":5100000,"occupancy_share":0.113},
		{"tenant":"mm-1-1","weight":1,"depth":1,"popped":1,"max_wait_ns":9000000,"device_ns":40000000,"occupancy_share":0.887}]}`,
	"/debug/flash": `{"jobs":[
		{"id":3,"board":"fpga-B","bitstream":"sobel","requester":"sobel-1-1","batched_requesters":["sobel-2-1"],"state":"flashing","queued":"2026-01-02T12:00:00Z"}],
		"queue_depths":{"fpga-B":1},
		"history":{"fpga-B":[
			{"id":1,"board":"fpga-B","bitstream":"mm","requester":"mm-1-1","state":"done","queued":"2026-01-02T11:59:00Z","wait_seconds":0.5,"flash_seconds":1.25,"drained_sessions":2},
			{"id":2,"board":"fpga-B","bitstream":"cnn","requester":"cnn-1-1","state":"failed","queued":"2026-01-02T11:59:30Z","error":"bitstream rejected"}]}}`,
}

// registryJSON is an Accelerators Registry's canned API and flash planner.
var registryJSON = map[string]string{
	"/devices": `[
		{"ID":"fpga-B","Node":"B","ManagerAddr":"127.0.0.1:5100","Bitstream":"sobel","Healthy":true,
		 "Metrics":{"Utilization":0.4567,"Connected":2,"QueueDepth":1},"Connected":["sobel-1-1","sobel-2-1"]},
		{"ID":"fpga-C","Node":"C","ManagerAddr":"127.0.0.1:5200","Healthy":false,"Connected":[]}]`,
	"/functions": `[
		{"Name":"mm-1","Bitstream":"mm","Query":{"Vendor":"Intel(R) Corporation","Accelerator":"mm"}},
		{"Name":"sobel-1","Bitstream":"sobel","Query":{"Vendor":"Intel(R) Corporation","Accelerator":"sobel"}}]`,
	"/debug/flash": `{"jobs":[
		{"id":4,"board":"fpga-C","bitstream":"mm","requester":"mm-2-1","state":"queued","queued":"2026-01-02T12:00:05Z"}],
		"queue_depths":{"fpga-C":1},"history":{}}`,
}

func serveJSON(t *testing.T, routes map[string]string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := routes[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRenderersGolden runs each renderer against canned JSON and
// compares its output byte for byte to testdata/<name>.golden.
func TestRenderersGolden(t *testing.T) {
	mgr, reg := serveJSON(t, managerJSON), serveJSON(t, registryJSON)
	for _, c := range []struct {
		name   string
		render func(out *bytes.Buffer)
	}{
		{"devices", func(out *bytes.Buffer) { showDevices(out, reg) }},
		{"functions", func(out *bytes.Buffer) { showFunctions(out, reg) }},
		{"traces", func(out *bytes.Buffer) { showTraces(out, mgr) }},
		{"tenants", func(out *bytes.Buffer) { showTenants(out, mgr) }},
		{"flash_list", func(out *bytes.Buffer) { showFlash(out, []string{reg, mgr}, []string{"list"}) }},
		{"flash_status", func(out *bytes.Buffer) { showFlash(out, []string{reg, mgr}, []string{"status"}) }},
		{"flash_history", func(out *bytes.Buffer) { showFlash(out, []string{reg, mgr}, []string{"history"}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			c.render(&out)
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, out.Bytes(), want)
			}
		})
	}
}
