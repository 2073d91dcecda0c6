package main

import "testing"

func TestParseManager(t *testing.T) {
	m, err := parseManager("node=B,id=fpga-B,addr=127.0.0.1:5100,metrics=http://127.0.0.1:5101/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m != (managerSpec{"B", "fpga-B", "127.0.0.1:5100", "http://127.0.0.1:5101/metrics"}) {
		t.Fatalf("parsed %+v", m)
	}
	for _, bad := range []string{"node=B,id=fpga-B", "node=B,id=fpga-B,addr=x,port=1", "node"} {
		if _, err := parseManager(bad); err == nil {
			t.Errorf("-manager %q accepted", bad)
		}
	}
}
