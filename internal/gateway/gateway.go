// Package gateway is the reproduction's serverless platform — the slice
// of OpenFaaS the paper deploys BlastFunction under.
//
// The Gateway is "the serverless system's endpoint, which forwards the
// requests to the functions and handles autoscaling". It deploys functions
// by creating function instances through the cluster orchestrator (where
// the Accelerators Registry intercepts and patches them), materializes
// each Running instance with the function's Factory (the function runtime:
// in a real deployment this is the container starting; here it builds the
// HTTP handler backed by an ocl client), and routes /function/<name>
// requests across ready instances through a pluggable Router (round-robin
// by default), behind optional per-tenant token-bucket admission control.
package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blastfunction/internal/cluster"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
)

// Endpoint is a materialized function instance: an HTTP handler plus its
// teardown.
type Endpoint interface {
	http.Handler
	io.Closer
}

// HandlerEndpoint adapts a plain handler with a close hook.
type HandlerEndpoint struct {
	http.Handler
	CloseFunc func() error
}

// Close implements Endpoint.
func (h HandlerEndpoint) Close() error {
	if h.CloseFunc == nil {
		return nil
	}
	return h.CloseFunc()
}

// Factory materializes a function instance once the orchestrator reports
// it Running. The instance's Env carries whatever the Registry injected
// (Device Manager address, device ID, node).
type Factory func(in cluster.Instance) (Endpoint, error)

// FuncStats aggregates per-function gateway statistics.
type FuncStats struct {
	Requests  int64
	Errors    int64
	InFlight  int64
	Replicas  int
	Admitted  int64
	Rejected  int64
	AvgMillis float64
}

// epState is one materialized endpoint with its live routing signals.
type epState struct {
	uid  string
	node string
	ep   Endpoint
	// routed is the endpoint's routed-milestone detail ("<router> -> <uid>
	// on <node>"), built once at materialization.
	routed string

	inflight atomic.Int64
	requests atomic.Int64
}

// lazyCounter is one of a function's front-door counters. The first
// request that counts into it resolves it against the registry — whenever
// Metrics was wired, and so that /metrics lists a series only once it has
// counted something — and the handle is held from then on: serving a
// request builds no label set and looks no series up.
type lazyCounter struct {
	once sync.Once
	c    metrics.Counter
}

func (l *lazyCounter) inc(reg *metrics.Registry, name, help, function string) {
	l.once.Do(func() { l.c = reg.Counter(name, help, metrics.Labels{"function": function}) })
	l.c.Inc()
}

type funcState struct {
	factory Factory
	mu      sync.Mutex
	// ready holds the materialized endpoints in rotation order; rot is
	// the router's state over it. Both are guarded by mu.
	ready []*epState
	rot   Rotation
	// scaleMu serializes Scale per function: concurrent autoscaler and
	// admin calls otherwise interleave their create/delete batches and
	// over- or under-shoot the replica count.
	scaleMu  sync.Mutex
	requests atomic.Int64
	errors   atomic.Int64
	inflight atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	latSumUs atomic.Int64
	// The exported SLI series behind those counts (nothing without
	// Gateway.Metrics); mLatency is resolved like a lazyCounter.
	mRequests, mErrors, mAdmitted, mRejected lazyCounter
	mLatencyOnce                             sync.Once
	mLatency                                 metrics.Histogram
}

// funcState is the routers' view of its ready endpoints; callers hold mu.
func (fs *funcState) Len() int             { return len(fs.ready) }
func (fs *funcState) Inflight(i int) int64 { return fs.ready[i].inflight.Load() }

// index returns the position of an instance's endpoint in the rotation,
// or -1. Called with mu held.
func (fs *funcState) index(uid string) int {
	for i, es := range fs.ready {
		if es.uid == uid {
			return i
		}
	}
	return -1
}

// factoryRetries bounds materialization attempts per instance; the delay
// doubles between attempts from factoryRetryDelay.
const (
	factoryRetries    = 5
	factoryRetryDelay = 100 * time.Millisecond
)

// Gateway routes requests to deployed functions.
type Gateway struct {
	cl *cluster.Cluster
	// Log receives deployment issues as structured events; defaults to
	// logx.Default("gateway").
	Log *logx.Logger
	// RetryDelay is the initial factory retry backoff; tests shorten it.
	RetryDelay time.Duration
	// Router picks the endpoint serving each request; nil falls back to
	// round-robin (the paper's behavior). Set before Run: an endpoint's
	// routed flight detail names the policy it was materialized under.
	Router *Router
	// Admission, when set, gates every /function/ request through the
	// per-tenant token buckets; over-budget requests get 429 with a
	// Retry-After. Nil admits everything.
	Admission *Admission
	// Flight, when set, is the gateway's always-on flight recorder: every
	// /function/ request leaves a milestone skeleton (admitted, routed,
	// complete) under a synthetic per-request key — the front-door leg of a
	// postmortem timeline. Handler serves it at /debug/flight; nil records
	// nothing. A process that dials Remote Libraries hands them the same
	// recorder (remote.Config.Flight), so their task flights are served
	// beside the requests'.
	Flight *flightrec.Recorder
	// Metrics, when set, receives the front-door counters
	// (bf_gateway_admitted_total / bf_gateway_rejected_total per
	// function). Nil skips them.
	Metrics *metrics.Registry
	// OnReady, when set, is called after an instance's factory returns a
	// live endpoint — the moment the function's program build has landed
	// on its board. Registry-backed deployments use it to close the flash
	// window the allocation opened (Registry.BuildLanded).
	OnReady func(in cluster.Instance)

	mu      sync.Mutex
	funcs   map[string]*funcState
	runCtx  context.Context
	stopped bool
}

// New creates a gateway over the cluster.
func New(cl *cluster.Cluster) *Gateway {
	return &Gateway{
		cl:         cl,
		Log:        logx.Default("gateway"),
		RetryDelay: factoryRetryDelay,
		funcs:      make(map[string]*funcState),
	}
}

// router returns the configured routing policy (round-robin when unset).
func (g *Gateway) router() *Router {
	if g.Router == nil {
		return roundRobin
	}
	return g.Router
}

// Deploy registers a function and creates replicas instances.
func (g *Gateway) Deploy(name string, replicas int, factory Factory) error {
	if name == "" || factory == nil || replicas <= 0 {
		return fmt.Errorf("gateway: bad deployment (name %q, %d replicas)", name, replicas)
	}
	g.mu.Lock()
	if _, ok := g.funcs[name]; ok {
		g.mu.Unlock()
		return fmt.Errorf("gateway: function %q already deployed", name)
	}
	g.funcs[name] = &funcState{factory: factory}
	g.mu.Unlock()
	for i := 0; i < replicas; i++ {
		if _, err := g.cl.CreateInstance(cluster.Instance{Function: name}); err != nil {
			return fmt.Errorf("gateway: creating replica %d of %q: %w", i, name, err)
		}
	}
	return nil
}

// Scale adjusts a function's replica count — the autoscaling hook. It
// creates or deletes instances; the registry reallocates accordingly.
// Calls are serialized per function and reconcile against the cluster's
// live instance list, so concurrent Autoscale and admin calls cannot
// interleave their create/delete batches.
func (g *Gateway) Scale(name string, replicas int) error {
	if replicas < 0 {
		return fmt.Errorf("gateway: negative replica count")
	}
	g.mu.Lock()
	fs := g.funcs[name]
	g.mu.Unlock()
	if fs == nil {
		return fmt.Errorf("gateway: function %q not deployed", name)
	}
	fs.scaleMu.Lock()
	defer fs.scaleMu.Unlock()
	current := g.cl.Instances(name)
	for i := len(current); i < replicas; i++ {
		if _, err := g.cl.CreateInstance(cluster.Instance{Function: name}); err != nil {
			return err
		}
	}
	for i := len(current) - 1; i >= replicas; i-- {
		if err := g.cl.DeleteInstance(current[i].UID); err != nil {
			return err
		}
	}
	return nil
}

// ClusterReplicas reports the function's instance count in the cluster —
// the ground truth Scale reconciles against, which leads ReadyReplicas
// while factories are still materializing.
func (g *Gateway) ClusterReplicas(name string) int {
	return len(g.cl.Instances(name))
}

// Run materializes instances from cluster events until ctx is cancelled.
// Call it after deploying at least the factories you expect events for;
// instances of unknown functions are ignored (they belong to other
// controllers). On return every ready endpoint is closed, so each
// instance's teardown (its Remote Library's connection and shared-memory
// segment) runs when the gateway stops.
func (g *Gateway) Run(ctx context.Context) {
	g.mu.Lock()
	g.runCtx = ctx
	g.mu.Unlock()
	defer g.stop()
	events, cancel := g.cl.Watch(64)
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			g.handle(ev)
		}
	}
}

// stop marks the gateway stopped and closes every ready endpoint. A
// materialize that read stopped as false holds its function's mu from
// before stop sets it (see materialize), so its endpoint is either in
// ready by the time stop drains that function or closed by materialize.
func (g *Gateway) stop() {
	g.mu.Lock()
	g.stopped = true
	funcs := make([]*funcState, 0, len(g.funcs))
	for _, fs := range g.funcs {
		funcs = append(funcs, fs)
	}
	g.mu.Unlock()
	for _, fs := range funcs {
		fs.mu.Lock()
		ready := fs.ready
		fs.ready, fs.rot = nil, Rotation{}
		fs.mu.Unlock()
		for _, es := range ready {
			es.ep.Close()
		}
	}
}

func (g *Gateway) handle(ev cluster.Event) {
	g.mu.Lock()
	fs := g.funcs[ev.Instance.Function]
	g.mu.Unlock()
	if fs == nil {
		return
	}
	switch ev.Type {
	case cluster.Added, cluster.Modified:
		if ev.Instance.Phase != cluster.Running {
			return
		}
		g.materialize(fs, ev.Instance, 0)
	case cluster.Deleted:
		fs.mu.Lock()
		var es *epState
		if i := fs.index(ev.Instance.UID); i >= 0 {
			es = fs.ready[i]
			fs.ready = append(fs.ready[:i], fs.ready[i+1:]...)
			if i < fs.rot.rr {
				fs.rot.rr-- // the endpoints behind i shifted left
			}
		}
		fs.mu.Unlock()
		if es != nil {
			es.ep.Close()
		}
	}
}

// materialize runs the function factory for a Running instance, retrying
// transient failures with exponential backoff (e.g. a Device Manager that
// has not finished starting). Retries abandon silently if the instance
// disappeared in the meantime.
func (g *Gateway) materialize(fs *funcState, in cluster.Instance, attempt int) {
	g.mu.Lock()
	ctx, stopped := g.runCtx, g.stopped
	g.mu.Unlock()
	if stopped || (ctx != nil && ctx.Err() != nil) {
		return // the gateway shut down; abandon retries
	}
	fs.mu.Lock()
	exists := fs.index(in.UID) >= 0
	fs.mu.Unlock()
	if exists {
		return
	}
	if cur, ok := g.cl.Get(in.UID); !ok || cur.Phase != cluster.Running {
		return // deleted or rescheduled while we were retrying
	}
	ep, err := fs.factory(in)
	if err != nil {
		if attempt+1 >= factoryRetries {
			g.Log.Error("gateway: starting instance failed, giving up",
				"instance", in.Name, "function", in.Function, "err", err, "attempts", attempt+1)
			return
		}
		delay := g.RetryDelay << attempt
		g.Log.Warn("gateway: starting instance failed, will retry",
			"instance", in.Name, "function", in.Function, "err", err, "retry_in", delay)
		time.AfterFunc(delay, func() { g.materialize(fs, in, attempt+1) })
		return
	}
	es := &epState{uid: in.UID, node: in.Node, ep: ep,
		routed: g.router().Name() + " -> " + in.UID + " on " + in.Node}
	// fs.mu is taken before g.mu is let go, so stop cannot drain fs
	// between this check and the append below.
	g.mu.Lock()
	stopped = g.stopped
	fs.mu.Lock()
	g.mu.Unlock()
	if stopped || fs.index(in.UID) >= 0 {
		fs.mu.Unlock()
		ep.Close()
		return
	}
	fs.ready = append(fs.ready, es)
	fs.mu.Unlock()
	if g.OnReady != nil {
		g.OnReady(in)
	}
}

// Handler serves the gateway API:
//
//	ANY /function/<name>   invoke the function
//	GET /system/functions  list deployments and statistics
//	GET /debug/gateway     admission + routing state (JSON)
//	GET /debug/flight      front-door flight-recorder skeletons
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/function/", g.serveFunction)
	mux.Handle("/debug/flight", g.Flight.Handler())
	mux.HandleFunc("/debug/gateway", g.serveDebug)
	mux.HandleFunc("/system/functions", func(w http.ResponseWriter, _ *http.Request) {
		g.mu.Lock()
		names := make([]string, 0, len(g.funcs))
		for n := range g.funcs {
			names = append(names, n)
		}
		g.mu.Unlock()
		fmt.Fprintln(w, "function requests errors inflight replicas avg_ms")
		for _, n := range names {
			s := g.Stats(n)
			fmt.Fprintf(w, "%s %d %d %d %d %.3f\n",
				n, s.Requests, s.Errors, s.InFlight, s.Replicas, s.AvgMillis)
		}
	})
	return mux
}

// serveFunction is the front door: admission, routing, then the endpoint.
func (g *Gateway) serveFunction(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/function/")
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	g.mu.Lock()
	fs := g.funcs[name]
	g.mu.Unlock()
	if fs == nil {
		http.Error(w, fmt.Sprintf("function %q not found", name), http.StatusNotFound)
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = name
	}
	// Front-door flight: a synthetic per-request key (no trace exists yet
	// at admission time), tenant-attributed for tail detection.
	flight := g.Flight.Begin(0, tenant)
	admStart := time.Now()
	if g.Admission != nil {
		ok, retryAfter := g.Admission.Admit(tenant)
		if !ok {
			fs.rejected.Add(1)
			if g.Metrics != nil {
				fs.mRejected.inc(g.Metrics, "bf_gateway_rejected_total",
					"Requests admission control refused (429) for the function.", name)
			}
			secs := int(retryAfter/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			g.Flight.Record(flight, flightrec.Event{
				Kind: flightrec.KindFailure, Dur: time.Since(admStart),
				Detail: "admission rejected (429), retry after " + strconv.Itoa(secs) + "s"})
			g.Flight.Complete(flight, time.Since(admStart), true, "over admission budget")
			http.Error(w, fmt.Sprintf("tenant %q over admission budget", tenant),
				http.StatusTooManyRequests)
			return
		}
		fs.admitted.Add(1)
		if g.Metrics != nil {
			fs.mAdmitted.inc(g.Metrics, "bf_gateway_admitted_total",
				"Requests admission control let through to the function.", name)
		}
	}
	g.Flight.Record(flight, flightrec.Event{
		Kind: flightrec.KindAdmitted, Dur: time.Since(admStart), Detail: name})
	var es *epState
	fs.mu.Lock()
	if i := g.router().Pick(fs, &fs.rot); i >= 0 {
		es = fs.ready[i]
	}
	fs.mu.Unlock()
	if es == nil {
		g.Flight.Record(flight, flightrec.Event{
			Kind: flightrec.KindFailure, Detail: "no ready instances"})
		g.Flight.Complete(flight, time.Since(admStart), true, "no ready instances")
		http.Error(w, fmt.Sprintf("function %q has no ready instances", name), http.StatusServiceUnavailable)
		return
	}
	g.Flight.Record(flight, flightrec.Event{Kind: flightrec.KindRouted, Detail: es.routed})
	fs.requests.Add(1)
	es.requests.Add(1)
	fs.inflight.Add(1)
	es.inflight.Add(1)
	start := time.Now()
	sw := statusWriters.Get().(*statusWriter)
	*sw = statusWriter{ResponseWriter: w, status: http.StatusOK}
	// The decrements and accounting are deferred so a panicking endpoint
	// cannot leak the in-flight counts: a leak would permanently inflate
	// the autoscaler's signal and poison least-inflight routing.
	defer func() {
		es.inflight.Add(-1)
		fs.inflight.Add(-1)
		elapsed := time.Since(start)
		fs.latSumUs.Add(elapsed.Microseconds())
		failed := false
		cause := ""
		if rec := recover(); rec != nil {
			failed = true
			cause = "endpoint panicked"
			fs.errors.Add(1)
			g.Log.Error("gateway: endpoint panicked",
				"function", name, "instance", es.uid, "panic", fmt.Sprint(rec))
			if !sw.wrote {
				http.Error(sw.ResponseWriter, "internal function error", http.StatusInternalServerError)
			}
		} else if sw.status >= 400 {
			failed = true
			cause = "endpoint returned HTTP " + strconv.Itoa(sw.status)
			fs.errors.Add(1)
		}
		if failed {
			g.Flight.Record(flight, flightrec.Event{
				Kind: flightrec.KindFailure, Detail: cause})
		}
		g.Flight.Complete(flight, elapsed, failed, cause)
		// Per-function request/error counters and the latency histogram
		// are the gateway-side SLIs the SLO engine reads (availability
		// goal and front-door quantiles).
		if reg := g.Metrics; reg != nil {
			fs.mRequests.inc(reg, "bf_function_requests_total",
				"Requests the gateway routed to the function.", name)
			if failed {
				fs.mErrors.inc(reg, "bf_function_errors_total",
					"Routed requests that failed (HTTP >= 400 or panic).", name)
			}
			fs.mLatencyOnce.Do(func() {
				fs.mLatency = reg.Histogram("bf_function_latency_seconds",
					"Front-door request latency per function.", metrics.Labels{"function": name}, nil)
			})
			fs.mLatency.Observe(elapsed.Seconds())
		}
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
	}()
	es.ep.ServeHTTP(sw, r)
}

// DebugEndpoint is one endpoint's routing view in /debug/gateway.
type DebugEndpoint struct {
	UID      string `json:"uid"`
	Node     string `json:"node"`
	InFlight int64  `json:"inflight"`
	Requests int64  `json:"requests"`
}

// DebugFunction is one function's front-door view in /debug/gateway.
type DebugFunction struct {
	Function  string          `json:"function"`
	Requests  int64           `json:"requests"`
	Errors    int64           `json:"errors"`
	InFlight  int64           `json:"inflight"`
	Replicas  int             `json:"replicas"`
	Admitted  int64           `json:"admitted"`
	Rejected  int64           `json:"rejected"`
	AvgMillis float64         `json:"avg_ms"`
	Endpoints []DebugEndpoint `json:"endpoints"`
}

// DebugState is the /debug/gateway document: the routing policy, whether
// admission is on, per-function stats with per-endpoint load, and the
// admission tenants.
type DebugState struct {
	Router    string            `json:"router"`
	Admission bool              `json:"admission"`
	Functions []DebugFunction   `json:"functions"`
	Tenants   []TenantAdmission `json:"tenants,omitempty"`
}

// Debug assembles the front-door state served at /debug/gateway.
func (g *Gateway) Debug() DebugState {
	st := DebugState{Router: g.router().Name(), Admission: g.Admission != nil}
	g.mu.Lock()
	names := make([]string, 0, len(g.funcs))
	for n := range g.funcs {
		names = append(names, n)
	}
	g.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		g.mu.Lock()
		fs := g.funcs[n]
		g.mu.Unlock()
		if fs == nil {
			continue
		}
		df := DebugFunction{
			Function: n,
			Requests: fs.requests.Load(),
			Errors:   fs.errors.Load(),
			InFlight: fs.inflight.Load(),
			Admitted: fs.admitted.Load(),
			Rejected: fs.rejected.Load(),
		}
		if df.Requests > 0 {
			df.AvgMillis = float64(fs.latSumUs.Load()) / float64(df.Requests) / 1000
		}
		fs.mu.Lock()
		for _, es := range fs.ready {
			df.Endpoints = append(df.Endpoints, DebugEndpoint{
				UID: es.uid, Node: es.node,
				InFlight: es.inflight.Load(), Requests: es.requests.Load(),
			})
		}
		fs.mu.Unlock()
		df.Replicas = len(df.Endpoints)
		st.Functions = append(st.Functions, df)
	}
	if g.Admission != nil {
		st.Tenants = g.Admission.Snapshot()
	}
	return st
}

func (g *Gateway) serveDebug(w http.ResponseWriter, _ *http.Request) {
	obs.WriteJSON(w, g.Debug())
}

// statusWriter records the status an endpoint answered with. Requests
// borrow one from statusWriters for the length of the endpoint call.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(p)
}

// Stats returns a function's gateway statistics.
func (g *Gateway) Stats(name string) FuncStats {
	g.mu.Lock()
	fs := g.funcs[name]
	g.mu.Unlock()
	if fs == nil {
		return FuncStats{}
	}
	fs.mu.Lock()
	replicas := len(fs.ready)
	fs.mu.Unlock()
	st := FuncStats{
		Requests: fs.requests.Load(),
		Errors:   fs.errors.Load(),
		InFlight: fs.inflight.Load(),
		Admitted: fs.admitted.Load(),
		Rejected: fs.rejected.Load(),
		Replicas: replicas,
	}
	if st.Requests > 0 {
		st.AvgMillis = float64(fs.latSumUs.Load()) / float64(st.Requests) / 1000
	}
	return st
}

// ReadyReplicas reports how many instances of a function are serving.
func (g *Gateway) ReadyReplicas(name string) int {
	return g.Stats(name).Replicas
}
