package main

import (
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// A hand-built request: root 0..100, gateway 10..90 inside it, two
// children of the gateway (20..30 and 40..70), one of which has a child
// that sticks out of its parent and must be clipped, and an overlay span.
func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 0, Parent: -1, Name: spanRequest, Start: 0, End: 100},
		{Req: 1, ID: 1, Parent: 0, Name: spanGateway, Start: 10, End: 90},
		{Req: 1, ID: 2, Parent: 1, Name: spanWrite, Start: 20, End: 30},
		{Req: 1, ID: 3, Parent: 1, Name: spanFinish, Start: 40, End: 70},
		{Req: 1, ID: 4, Parent: 3, Name: spanService, Start: 35, End: 50}, // clipped to 40..50
		{Req: 1, ID: 5, Parent: overlay, Name: spanUplink, Start: 20, End: 45},
	}
	want := []int64{20, 40, 10, 20, 15, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// Inside the tree the self times add up to the root (the clipped part
	// of the service span is the only excess).
	if sum := got[0] + got[1] + got[2] + got[3] + 10; sum != 100 {
		t.Errorf("tree self times add up to %d, want the root's 100", sum)
	}
}

func TestTypicalRowsAddUpToTheirTotal(t *testing.T) {
	var spans []span
	id := int32(0)
	add := func(req uint32, parent int32, name string, start, end int64) int32 {
		spans = append(spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end})
		id++
		return id - 1
	}
	// Twenty complete requests of growing length and one without a
	// finish breakdown, which must not be averaged in.
	for r := uint32(1); r <= 21; r++ {
		base, k := int64(r)*10000, int64(r)
		root := add(r, -1, spanRequest, base, base+100*k)
		gw := add(r, root, spanGateway, base+10*k, base+90*k)
		app := add(r, gw, spanApps, base+15*k, base+85*k)
		add(r, app, spanWrite, base+20*k, base+25*k)
		add(r, app, spanKernel, base+25*k, base+30*k)
		add(r, app, spanRead, base+30*k, base+35*k)
		fin := add(r, app, spanFinish, base+35*k, base+80*k)
		if r == 21 {
			continue
		}
		add(r, fin, spanService, base+45*k, base+60*k)
		add(r, fin, spanDownlink, base+60*k, base+70*k)
		add(r, fin, spanWake, base+70*k, base+80*k)
		add(r, overlay, spanUplink, base+20*k, base+45*k)
		add(r, overlay, spanClientWrite, base+20*k, base+28*k)
	}
	bs := breakdowns(spans)
	if len(bs) != 21 {
		t.Fatalf("%d breakdowns, want 21", len(bs))
	}
	mean, complete := typical(bs)
	if math.Abs(complete-20.0/21) > 1e-9 {
		t.Errorf("complete = %v, want 20/21", complete)
	}
	sum := 0.0
	for c, name := range spanNames {
		if name != spanUplink && name != spanClientWrite {
			sum += mean.self[c]
		}
	}
	if math.Abs(sum-mean.total) > 1e-6 {
		t.Errorf("rows add up to %v, total is %v", sum, mean.total)
	}
	// Middle fifth of totals 100..2000: requests 8..12, mean 1000.
	if math.Abs(mean.total-1000) > 1e-6 {
		t.Errorf("typical total = %v, want 1000", mean.total)
	}
}

func TestRecorderNestsAcrossGoroutines(t *testing.T) {
	r := newRecorder(time.Now(), 8)
	root := r.begin(spanRequest)
	done := make(chan struct{})
	go func() { // the HTTP server's goroutine
		defer close(done)
		gw := r.begin(spanGateway)
		r.child(gw, spanService, 1, 2)
		r.end(gw)
	}()
	<-done
	r.end(root)
	next := r.begin(spanRequest)
	r.end(next)
	spans := r.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[1].Parent != root || spans[2].Parent != spans[1].ID || spans[0].Req != spans[2].Req {
		t.Errorf("wrong nesting: %+v", spans)
	}
	if spans[3].Req == spans[0].Req || spans[3].Parent != -1 {
		t.Errorf("a span opened with nothing open must start a new request: %+v", spans[3])
	}
	var none *recorder
	none.end(none.begin(spanRequest)) // untraced runs record through a nil recorder
}

func TestConnWrappersCountOnAPipe(t *testing.T) {
	cRaw, sRaw := net.Pipe()
	defer cRaw.Close()
	defer sRaw.Close()
	probe := &connProbe{base: time.Now()}
	var table probeTable
	table.register(cRaw.LocalAddr(), probe)
	client := &clientConn{Conn: cRaw, p: probe}
	server := &serverConn{Conn: sRaw, table: &table}

	// Request: two client writes (7 bytes), read by the server in three
	// reads; reply: one server write (5 bytes), read in one.
	// A pipe's Write returns only once its bytes are read, and the wrappers
	// count after the inner call: wait for the writers before counting.
	wrote := make(chan struct{}, 3)
	go func() {
		client.Write([]byte("abc"))
		client.Write([]byte("defg"))
		wrote <- struct{}{}
	}()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(server, buf); err != nil { // "ab"
		t.Fatal(err)
	}
	if _, err := io.ReadFull(server, buf[:1]); err != nil { // "c"
		t.Fatal(err)
	}
	four := make([]byte, 4)
	if _, err := io.ReadFull(server, four); err != nil { // "defg"
		t.Fatal(err)
	}
	<-wrote
	flushRead := probe.flushRead.Load()
	go func() {
		server.Write([]byte("reply"))
		wrote <- struct{}{}
	}()
	if _, err := io.ReadFull(client, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	<-wrote

	if w, r := probe.clientWrites.Load(), probe.clientReads.Load(); w != 2 || r != 1 {
		t.Errorf("client: %d writes %d reads, want 2 and 1", w, r)
	}
	if w, r := probe.serverWrites.Load(), probe.serverReads.Load(); w != 1 || r != 3 {
		t.Errorf("server: %d writes %d reads, want 1 and 3", w, r)
	}
	if up, down := probe.bytesUp.Load(), probe.bytesDown.Load(); up != 7 || down != 5 {
		t.Errorf("bytes: %d up %d down, want 7 and 5", up, down)
	}
	first, write, woke := probe.firstClientWrite.Load(), probe.lastServerWrite.Load(), probe.lastClientRead.Load()
	if !(0 < first && first <= flushRead && flushRead <= write && write <= woke) {
		t.Errorf("marks out of order: first write %d, flush read %d, server write %d, client read %d",
			first, flushRead, write, woke)
	}
	// A read after the server answered belongs to the next request and
	// must not move the flush mark.
	go func() {
		client.Write([]byte("x"))
		wrote <- struct{}{}
	}()
	if _, err := io.ReadFull(server, buf[:1]); err != nil {
		t.Fatal(err)
	}
	<-wrote
	if probe.flushRead.Load() != flushRead {
		t.Error("flush mark moved after the server's first write")
	}
	probe.resetMarks()
	if probe.firstClientWrite.Load() != 0 || probe.reqServerWrites.Load() != 0 {
		t.Error("resetMarks left marks behind")
	}
}
