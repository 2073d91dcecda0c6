package gateway

import (
	"fmt"
	"strings"
)

// RouteHint carries the per-request inputs a routing policy may consult.
type RouteHint struct {
	// Node is the shm-affinity hint (the X-BF-Node header): the caller
	// runs on (or its data lives on) this node, so an endpoint whose
	// instance shares the node can use the shared-memory transport
	// instead of crossing the network.
	Node string
}

// Endpoints is one function's ready endpoints in rotation order, as a
// routing policy reads them. The gateway supplies its live per-instance
// counters; the discrete-event simulator supplies its own under a
// virtual clock.
type Endpoints interface {
	Len() int
	// Inflight is the number of requests endpoint i is serving.
	Inflight(i int) int64
	// Weight is endpoint i's fair-share weight; below 1 counts as 1.
	Weight(i int) int
	// Node is the node hosting endpoint i's instance.
	Node(i int) string
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
	pick func(eps Endpoints, rot *Rotation, hint RouteHint) int
}

// Name identifies the policy ("roundrobin", "least-inflight", ...).
func (r *Router) Name() string { return r.name }

// Pick returns the index of the chosen endpoint, or -1 when there is
// none.
func (r *Router) Pick(eps Endpoints, rot *Rotation, hint RouteHint) int {
	return r.pick(eps, rot, hint)
}

// Router policy names accepted by NewRouter.
const (
	RouterRoundRobin    = "roundrobin"
	RouterLeastInflight = "least-inflight"
	RouterLocality      = "locality"
	RouterWeighted      = "weighted"
)

// RouterNames lists every name NewRouter accepts besides the empty one.
var RouterNames = []string{RouterRoundRobin, RouterLeastInflight, RouterLocality, RouterWeighted}

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
	case RouterLocality:
		return &Router{name, pickLocality}, nil
	case RouterWeighted:
		return &Router{name, pickWeighted}, nil
	}
	return nil, fmt.Errorf("gateway: unknown router %q (want %s)", name, strings.Join(RouterNames, "|"))
}

// pickRoundRobin cycles through ready endpoints in materialization order
// — the paper's gateway behavior.
func pickRoundRobin(eps Endpoints, rot *Rotation, _ RouteHint) int {
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
// Ties rotate so idle endpoints still share work evenly.
func pickLeastInflight(eps Endpoints, rot *Rotation, _ RouteHint) int {
	return pickLowest(eps, rot, "", inflightScore)
}

// pickLocality prefers endpoints whose instance node matches the
// request's shm-affinity hint (co-located instances reach the board over
// /dev/shm with one copy instead of the network). Among the co-located
// endpoints — or all of them when no hint matches — it falls back to
// least-inflight, so locality never funnels everything onto one hot
// instance.
func pickLocality(eps Endpoints, rot *Rotation, hint RouteHint) int {
	if hint.Node != "" {
		if i := pickLowest(eps, rot, hint.Node, inflightScore); i >= 0 {
			return i
		}
	}
	return pickLowest(eps, rot, "", inflightScore)
}

// pickWeighted scores endpoints by in-flight load normalized by the
// registry-propagated fair-share weight (BF_TENANT_WEIGHT): an endpoint
// with weight 3 absorbs three times the concurrency of a weight-1 one
// before looking equally loaded.
func pickWeighted(eps Endpoints, rot *Rotation, _ RouteHint) int {
	return pickLowest(eps, rot, "", weightedScore)
}

func inflightScore(eps Endpoints, i int) float64 { return float64(eps.Inflight(i)) }

func weightedScore(eps Endpoints, i int) float64 {
	w := eps.Weight(i)
	if w < 1 {
		w = 1
	}
	return float64(eps.Inflight(i)+1) / float64(w)
}

// pickLowest returns the lowest-scoring endpoint among those on node
// (every endpoint when node is empty), or -1 when none qualifies. The
// scan starts at the rotation's tie offset among the qualifying
// endpoints, so equal scores take turns.
func pickLowest(eps Endpoints, rot *Rotation, node string, score func(Endpoints, int) float64) int {
	n := eps.Len()
	m := n
	if node != "" {
		m = 0
		for i := 0; i < n; i++ {
			if eps.Node(i) == node {
				m++
			}
		}
	}
	if m == 0 {
		return -1
	}
	start := rot.tie % m
	rot.tie = start + 1
	best, bestPos, bestScore := -1, 0, 0.0
	for i, j := 0, 0; i < n; i++ {
		if node != "" && eps.Node(i) != node {
			continue
		}
		// pos is the endpoint's place in the scan that starts at start.
		pos := (j - start + m) % m
		j++
		if s := score(eps, i); best < 0 || s < bestScore || (s == bestScore && pos < bestPos) {
			best, bestPos, bestScore = i, pos, s
		}
	}
	return best
}
