package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
	// A sampled 3-op task's manager flight, as /debug/flight?trace= serves it.
	"/debug/flight": `{"process":"manager/fpga-B","evicted":0,"spilled":0,"flights":[
		{"trace":"00000000000000aa","tenant":"sobel-1-1","events":[
			{"kind":"enqueued","time":"2026-01-02T12:00:00.0003Z","detail":"3 ops","depth":1,"pos":1,"seq":11},
			{"kind":"scheduled","time":"2026-01-02T12:00:00.0008Z","dur_ns":500000,"detail":"fifo","seq":12},
			{"kind":"upload","time":"2026-01-02T12:00:00.001Z","dur_ns":200000,"detail":"device-write","seq":13},
			{"kind":"op","time":"2026-01-02T12:00:00.00085Z","dur_ns":50000,"detail":"write","seq":14},
			{"kind":"op","time":"2026-01-02T12:00:00.00095Z","dur_ns":100000,"detail":"kernel","seq":15},
			{"kind":"op","time":"2026-01-02T12:00:00.00105Z","dur_ns":100000,"detail":"read","seq":16},
			{"kind":"execute","time":"2026-01-02T12:00:00.0028Z","dur_ns":2000000,"detail":"3 ops","ops":3,"device_ns":1500000,"seq":17},
			{"kind":"notify","time":"2026-01-02T12:00:00.0029Z","dur_ns":100000,"seq":18},
			{"kind":"complete","time":"2026-01-02T12:00:00.00295Z","dur_ns":2650000,"seq":19}]}]}`,
	"/debug/cache": `{"device":"fpga-B","node":"B",
		"buffer_cache":{"entries":3,"resident_bytes":3145728,"hits":12,"misses":3,"bytes_saved":12582912,"evictions":1},
		"copy_ops":4,"copy_bytes":8192}`,
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
	// A firing alert renders its age against the wall clock, so the
	// canned rule is pending to keep the top golden stable.
	"/debug/alerts": `[
		{"rule":"QueueBacklog","labels":{"device":"fpga-B"},"state":"pending","value":9,"threshold":8,"op":">","since":"2026-01-02T12:00:00Z"}]`,
	"/debug/slo": `[
		{"name":"sobel-fast","subject":"sobel-1","spec":"sobel-1:p99<50ms:99.9%","window_ns":3600000000000,
		 "latency":{"kind":"latency","goal":0.99,"budget_remaining":0.25,"exemplar_trace":"00000000000000aa","has_data":true,
		  "burns":[{"window":{"name":"fast","severity":"page","factor":14.4},"long_burn":20,"short_burn":18,"breached":true,"has_data":true}]},
		 "availability":{"kind":"availability","goal":0.999,"budget_remaining":1,"has_data":true,"burns":[]}},
		{"name":"mm-steady","subject":"mm-1","spec":"mm-1:p99<200ms:99%","window_ns":3600000000000,
		 "latency":{"kind":"latency","goal":0.99,"budget_remaining":0.9,"has_data":true,"burns":[]},
		 "availability":{"kind":"availability","goal":0.99,"budget_remaining":0.6,"has_data":true,
		  "burns":[{"window":{"name":"slow","severity":"warn","factor":6},"long_burn":7,"short_burn":6.5,"breached":true,"has_data":true}]}}]`,
}

// gatewayJSON is a gateway's canned front-door view.
var gatewayJSON = map[string]string{
	"/debug/gateway": `{"router":"least-loaded","admission":true,
		"functions":[
			{"function":"mm-1","requests":40,"errors":1,"inflight":2,"replicas":1,"admitted":40,"rejected":0,"avg_ms":12.5},
			{"function":"sobel-1","requests":120,"errors":0,"inflight":0,"replicas":2,"admitted":110,"rejected":10,"avg_ms":3.25}],
		"tenants":[
			{"tenant":"acme","rate":50,"priority":1,"admitted":110,"rejected":10},
			{"tenant":"quiet","rate":5,"priority":0,"admitted":40,"rejected":0}]}`,
	// The same task's Remote Library flight, served by the gateway that
	// dialled the library.
	"/debug/flight": `{"process":"gateway","evicted":3,"spilled":0,"flights":[
		{"trace":"00000000000000aa","tenant":"sobel-1-1","events":[
			{"kind":"upload","time":"2026-01-02T12:00:00.0001Z","dur_ns":40000,"detail":"wire-send","seq":4},
			{"kind":"complete","time":"2026-01-02T12:00:00.0032Z","dur_ns":3200000,"seq":5}]}]}`,
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
	mgr, reg, gw := serveJSON(t, managerJSON), serveJSON(t, registryJSON), serveJSON(t, gatewayJSON)
	for _, c := range []struct {
		name   string
		render func(out *bytes.Buffer)
	}{
		{"devices", func(out *bytes.Buffer) { showDevices(out, reg) }},
		{"functions", func(out *bytes.Buffer) { showFunctions(out, reg) }},
		{"traces", func(out *bytes.Buffer) { showTraces(out, mgr) }},
		{"trace", func(out *bytes.Buffer) { showTrace(out, []string{gw, mgr}, "00000000000000aa") }},
		{"tenants", func(out *bytes.Buffer) { showTenants(out, mgr) }},
		{"flash_list", func(out *bytes.Buffer) { showFlash(out, []string{reg, mgr}, []string{"list"}) }},
		{"flash_status", func(out *bytes.Buffer) { showFlash(out, []string{reg, mgr}, []string{"status"}) }},
		{"flash_history", func(out *bytes.Buffer) { showFlash(out, []string{reg, mgr}, []string{"history"}) }},
		// The first line of a top frame is the wall clock; the rest is
		// deterministic.
		{"top", func(out *bytes.Buffer) {
			frame := topFrame([]string{reg}, []string{reg, gw}, gw, mgr)
			out.WriteString(frame[strings.IndexByte(frame, '\n')+1:])
		}},
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
