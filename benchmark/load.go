package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"blastfunction/internal/apps"
)

// requestTimeout is the hard per-request limit; a request that hits it
// counts as failed.
const requestTimeout = 5 * time.Second

// arrivals returns the due times of a Poisson arrival process of rate
// requests per second, from 0 up to horizon: seeded exponential
// inter-arrival times, the same for the same seed.
func arrivals(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return due
		}
		due = append(due, d)
	}
}

// sample is one finished request. Times are offsets from the load start.
type sample struct {
	due  time.Duration // when it was due (closed loop: when it was sent)
	lag  time.Duration // how late the generator sent it once it was due and the connection free
	done time.Duration
	ok   bool
}

// failure kinds, counted per tenant.
const (
	failStatus  = iota // reply other than 200 (a 429 counts under failRefused)
	failCRC            // reply checksum differs from the payload's
	failTimeout        // transport error or the 5 s limit
	failRefused        // admission said 429
	failKinds
)

// tenantLoad drives one tenant over one HTTP connection, like
// `hey -c 1 -q R`: the next request goes out when the previous reply has
// arrived and, if the tenant is rate-limited, its due time has come. A
// request due while the connection is busy waits, and is timed from its
// due time, so a stall is charged to every request it delays.
type tenantLoad struct {
	spec   tenantSpec
	reqs   []*http.Request // one per payload, reused: the generator's own cost is kept low
	sums   []uint32        // CRC32 of each payload, computed by the harness
	client *http.Client
	rec    *recorder // nil unless traced

	// completed counts finished requests; the slice coordinator reads it
	// at slice boundaries together with the process counters.
	completed atomic.Int64

	samples []sample
	fails   [failKinds]int
	body    []byte
}

func newTenantLoad(spec tenantSpec, baseURL string, sums []uint32, rec *recorder) *tenantLoad {
	tr := &http.Transport{
		MaxIdleConnsPerHost:   1,
		MaxConnsPerHost:       1,
		DialContext:           (&net.Dialer{Timeout: requestTimeout}).DialContext,
		ResponseHeaderTimeout: requestTimeout,
	}
	t := &tenantLoad{
		spec:   spec,
		sums:   sums,
		client: &http.Client{Transport: tr},
		rec:    rec,
		body:   make([]byte, 512),
	}
	for idx := range sums {
		req, err := http.NewRequest(http.MethodGet, baseURL+"/function/"+spec.name+"?p="+strconv.Itoa(idx), nil)
		if err != nil {
			panic(err) // the URL is built from constants
		}
		t.reqs = append(t.reqs, req)
	}
	return t
}

// close drops the tenant's connection.
func (t *tenantLoad) close() { t.client.CloseIdleConnections() }

// once sends request number i and checks the reply.
func (t *tenantLoad) once(i int) (ok bool) {
	idx := i % len(t.sums)
	id := t.rec.begin(spanRequest)
	defer t.rec.end(id)
	resp, err := t.client.Do(t.reqs[idx])
	if err != nil {
		t.fails[failTimeout]++
		return false
	}
	defer resp.Body.Close()
	// Replies are a few dozen bytes; one that fills the buffer is cut
	// short and fails the JSON check below.
	n, err := io.ReadFull(resp.Body, t.body)
	switch {
	case err != io.EOF && err != io.ErrUnexpectedEOF && err != nil:
		t.fails[failTimeout]++
	case resp.StatusCode == http.StatusTooManyRequests:
		t.fails[failRefused]++
	case resp.StatusCode != http.StatusOK:
		t.fails[failStatus]++
	default:
		var rep apps.Reply
		if json.Unmarshal(t.body[:n], &rep) != nil || rep.Checksum != t.sums[idx] {
			t.fails[failCRC]++
			return false
		}
		return true
	}
	return false
}

// run sends requests from start until horizon has passed. A rate-limited
// tenant follows its arrival schedule; a closed-loop tenant sends
// back to back.
func (t *tenantLoad) run(start time.Time, horizon time.Duration, schedule []time.Duration) {
	paced := t.spec.rate > 0
	free := time.Duration(0) // when the connection became free
	for i := 0; ; i++ {
		var due time.Duration
		if paced {
			if i >= len(schedule) {
				return
			}
			due = schedule[i]
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		sent := time.Since(start)
		if !paced {
			due = sent
		}
		if sent >= horizon {
			return
		}
		ok := t.once(i)
		done := time.Since(start)
		t.samples = append(t.samples, sample{due: due, lag: sent - max(due, free), done: done, ok: ok})
		free = done
		t.completed.Add(1)
	}
}

// failed sums the tenant's failures of every kind.
func (t *tenantLoad) failed() int {
	n := 0
	for _, c := range t.fails {
		n += c
	}
	return n
}

func (t *tenantLoad) String() string {
	return fmt.Sprintf("%s: %d sent, %d failed (status %d, crc %d, timeout %d, refused %d)",
		t.spec.name, len(t.samples), t.failed(),
		t.fails[failStatus], t.fails[failCRC], t.fails[failTimeout], t.fails[failRefused])
}
