package gateway

import (
	"fmt"
	"strings"
)

// Endpoints is one function's ready endpoints in rotation order, as a
// routing policy reads them. The gateway supplies its live per-instance
// counters; the discrete-event simulator supplies its own under a
// virtual clock.
type Endpoints interface {
	Len() int
	// Inflight is the number of requests endpoint i is serving.
	Inflight(i int) int64
}

// Rotation is a router's per-function state. The caller serializes picks
// on one Rotation; its zero value starts at the first endpoint.
type Rotation struct {
	// rr is the round-robin cursor: an index into the endpoints (not a
	// modulo counter). Whoever removes endpoint i moves a cursor past i
	// back by one, so a shrinking rotation neither skips nor
	// double-serves the surviving endpoints.
	rr int
	// tie rotates the scan offset of load-based routers so equally
	// loaded endpoints share work instead of the first always winning.
	tie int
}

// Router is a routing policy: it picks the endpoint that serves a
// request. Policies are selected by name (NewRouter) and hold no state
// of their own.
type Router struct {
	name string
	pick func(eps Endpoints, rot *Rotation) int
}

// Name identifies the policy ("roundrobin", "least-inflight", ...).
func (r *Router) Name() string { return r.name }

// Pick returns the index of the chosen endpoint, or -1 when there is
// none.
func (r *Router) Pick(eps Endpoints, rot *Rotation) int {
	return r.pick(eps, rot)
}

// Router policy names accepted by NewRouter.
const (
	RouterRoundRobin    = "roundrobin"
	RouterLeastInflight = "least-inflight"
)

// RouterNames lists every name NewRouter accepts besides the empty one.
var RouterNames = []string{RouterRoundRobin, RouterLeastInflight}

// roundRobin is the paper-faithful default policy.
var roundRobin = &Router{RouterRoundRobin, pickRoundRobin}

// NewRouter builds a routing policy by name. The empty name selects
// round-robin.
func NewRouter(name string) (*Router, error) {
	switch name {
	case "", RouterRoundRobin:
		return roundRobin, nil
	case RouterLeastInflight:
		return &Router{name, pickLeastInflight}, nil
	}
	return nil, fmt.Errorf("gateway: unknown router %q (want %s)", name, strings.Join(RouterNames, "|"))
}

// pickRoundRobin cycles through ready endpoints in materialization order
// — the paper's gateway behavior.
func pickRoundRobin(eps Endpoints, rot *Rotation) int {
	n := eps.Len()
	if n == 0 {
		return -1
	}
	if rot.rr >= n {
		rot.rr = 0
	}
	i := rot.rr
	rot.rr++
	return i
}

// pickLeastInflight picks the endpoint with the fewest requests in
// flight — the live load signal the admission/routing exemplar routes on.
// The scan starts at the rotation's tie offset, so equally loaded
// endpoints take turns instead of the first always winning.
func pickLeastInflight(eps Endpoints, rot *Rotation) int {
	n := eps.Len()
	if n == 0 {
		return -1
	}
	start := rot.tie % n
	rot.tie = start + 1
	best, bestLoad := -1, int64(0)
	for j := 0; j < n; j++ {
		i := (start + j) % n
		if load := eps.Inflight(i); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}
