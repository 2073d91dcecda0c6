// Package slo turns the raw series the Metrics Gatherer already scrapes
// into declared, per-tenant objectives: a latency quantile target plus
// an availability goal over a rolling window, with error-budget
// accounting and Google-SRE-style multi-window burn-rate alerting.
//
// An objective is declared as a flag ("checkout:p99<50ms:99.9%"), its
// SLIs are reconstructed from the TSDB — task-latency histogram buckets
// for the quantile, request/error counters for availability — and two
// derived burn-rate rules plug into the alert engine: a fast burn
// (factor 14.4, pages) that catches budget-destroying incidents within
// minutes, and a slow burn (factor 6, warns) that catches steady leaks
// before the window's budget quietly drains. Both use the long+short
// window AND-condition so a stale long window cannot keep an alert
// firing after the incident ends.
//
// Because the latency histograms carry exemplars (see
// metrics.Histogram.ObserveExemplar), every burning objective also
// reports the exact trace ID of a recent over-target request —
// `blastctl slo` to `blastctl trace <id>` is one hop.
package slo

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
)

// Default SLI metrics. The manager exports per-tenant task residency;
// the gateway exports per-function request/error counters. An objective
// whose subject matches neither simply reports no data.
const (
	DefaultLatencyMetric = "bf_task_latency_seconds"
	defaultWindow        = time.Hour
)

// availabilityPairs are the (requests, errors) counter pairs tried in
// order when an objective doesn't name its own.
var availabilityPairs = [][2]string{
	{"bf_function_requests_total", "bf_function_errors_total"},
	{"bf_tenant_tasks_total", "bf_tenant_task_failures_total"},
}

// subjectLabels are the label keys an objective's subject is matched
// against: a series belongs to the objective when any of them equals
// the subject.
var subjectLabels = []string{"tenant", "function", "client"}

// Objective is one declared service-level objective.
type Objective struct {
	// Name identifies the objective in alerts and blastctl.
	Name string
	// Subject is the tenant/function/client label value whose series
	// feed the SLIs (defaults to Name).
	Subject string
	// Quantile is the latency SLI's goal fraction: p99 means 99% of
	// requests must finish under Target.
	Quantile float64
	// Target is the latency bound.
	Target time.Duration
	// Goal is the availability goal as a fraction (99.9% -> 0.999).
	Goal float64
	// Window is the error-budget window (default 1h).
	Window time.Duration
	// LatencyMetric overrides the histogram the latency SLI reads
	// (default bf_task_latency_seconds).
	LatencyMetric string
	// RequestsMetric/ErrorsMetric override the availability counters;
	// both empty tries the built-in pairs.
	RequestsMetric string
	ErrorsMetric   string
}

func (o Objective) subject() string {
	if o.Subject != "" {
		return o.Subject
	}
	return o.Name
}

func (o Objective) window() time.Duration {
	if o.Window > 0 {
		return o.Window
	}
	return defaultWindow
}

func (o Objective) latencyMetric() string {
	if o.LatencyMetric != "" {
		return o.LatencyMetric
	}
	return DefaultLatencyMetric
}

// matches reports whether a series' labels belong to this objective.
func (o Objective) matches(lbl metrics.Labels) bool {
	s := o.subject()
	for _, k := range subjectLabels {
		if lbl[k] == s {
			return true
		}
	}
	return false
}

// String renders the objective in its flag form.
func (o Objective) String() string {
	p := strconv.FormatFloat(o.Quantile*100, 'g', -1, 64)
	g := strconv.FormatFloat(o.Goal*100, 'g', -1, 64)
	return fmt.Sprintf("%s:p%s<%s:%s%%:%s", o.Name, p, o.Target, g, o.window())
}

// ParseObjective parses the flag form:
//
//	name:p99<50ms:99.9%[:window]
//
// name matches the tenant/function/client label of the underlying
// series; p99<50ms is the latency SLI (99% of requests under 50ms);
// 99.9% is the availability goal; the optional window (Go duration)
// defaults to 1h.
func ParseObjective(s string) (Objective, error) {
	var o Objective
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return o, fmt.Errorf("slo: %q: want name:pNN<target:goal%%[:window]", s)
	}
	o.Name = parts[0]
	if o.Name == "" {
		return o, fmt.Errorf("slo: %q: empty name", s)
	}
	lat := parts[1]
	lt := strings.IndexByte(lat, '<')
	if !strings.HasPrefix(lat, "p") || lt < 0 {
		return o, fmt.Errorf("slo: %q: latency part %q: want pNN<duration", s, lat)
	}
	pct, err := strconv.ParseFloat(lat[1:lt], 64)
	if err != nil || !(pct > 0 && pct < 100) { // also rejects NaN
		return o, fmt.Errorf("slo: %q: quantile %q: want a percentile in (0,100)", s, lat[1:lt])
	}
	o.Quantile = pct / 100
	target, err := time.ParseDuration(lat[lt+1:])
	if err != nil || target <= 0 {
		return o, fmt.Errorf("slo: %q: latency target %q: want a positive duration", s, lat[lt+1:])
	}
	o.Target = target
	goalText := strings.TrimSuffix(parts[2], "%")
	goal, err := strconv.ParseFloat(goalText, 64)
	if err != nil || !(goal > 0 && goal < 100) {
		return o, fmt.Errorf("slo: %q: availability goal %q: want a percentage in (0,100)", s, goalText)
	}
	o.Goal = goal / 100
	if len(parts) == 4 {
		w, err := time.ParseDuration(parts[3])
		if err != nil || w <= 0 {
			return o, fmt.Errorf("slo: %q: window %q: want a positive duration", s, parts[3])
		}
		o.Window = w
	}
	return o, nil
}

// Flag is a repeatable -slo flag value collecting objectives.
type Flag struct{ Objectives []Objective }

// String implements flag.Value.
func (f *Flag) String() string {
	names := make([]string, len(f.Objectives))
	for i, o := range f.Objectives {
		names[i] = o.String()
	}
	return strings.Join(names, ",")
}

// Set implements flag.Value, parsing and appending one objective.
func (f *Flag) Set(s string) error {
	o, err := ParseObjective(s)
	if err != nil {
		return err
	}
	f.Objectives = append(f.Objectives, o)
	return nil
}

// BurnWindow is one burn-rate alerting condition: the alert breaches
// while the budget burns faster than Factor× its sustainable rate over
// BOTH the long and the short window. The long window gives confidence
// the burn is real; the short window makes the alert resolve promptly
// once the burn stops (Google SRE workbook, ch. 5).
type BurnWindow struct {
	Name     string        `json:"name"`     // "fast" or "slow"
	Severity string        `json:"severity"` // "page" or "warn"
	Factor   float64       `json:"factor"`
	Long     time.Duration `json:"long_ns"`
	Short    time.Duration `json:"short_ns"`
}

// DefaultBurnWindows derives the two standard conditions from an
// objective's budget window. For the canonical 1h window: fast burn
// factor 14.4 over (5m, 30s) pages — at that rate the hour's budget is
// gone in ~4 minutes; slow burn factor 6 over (15m, 75s) warns. Windows
// scale with W but are floored so sub-minute test windows still have
// multiple scrapes in the short window.
func DefaultBurnWindows(window time.Duration) []BurnWindow {
	if window <= 0 {
		window = defaultWindow
	}
	fastLong := maxDur(window/12, 30*time.Second)
	slowLong := maxDur(window/4, 90*time.Second)
	return []BurnWindow{
		{Name: "fast", Severity: "page", Factor: 14.4, Long: fastLong, Short: maxDur(fastLong/10, 10*time.Second)},
		{Name: "slow", Severity: "warn", Factor: 6, Long: slowLong, Short: maxDur(slowLong/12, 15*time.Second)},
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Engine computes SLI values, error budgets and burn rates for a set of
// objectives over a TSDB.
type Engine struct {
	db *metrics.TSDB
	// Now is the injectable clock (default time.Now).
	Now func() time.Time
	// Windows overrides the burn conditions for every objective; nil
	// derives DefaultBurnWindows from each objective's budget window.
	Windows []BurnWindow

	mu         sync.Mutex
	objectives []Objective
}

// NewEngine creates an engine over db; add objectives with Add.
func NewEngine(db *metrics.TSDB) *Engine {
	return &Engine{db: db, Now: time.Now}
}

// Add registers objectives.
func (e *Engine) Add(objs ...Objective) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.objectives = append(e.objectives, objs...)
}

// Objectives snapshots the registered objectives.
func (e *Engine) Objectives() []Objective {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Objective(nil), e.objectives...)
}

func (e *Engine) windowsFor(o Objective) []BurnWindow {
	if e.Windows != nil {
		return e.Windows
	}
	return DefaultBurnWindows(o.window())
}

// bkt is one cumulative histogram bucket reconstructed from the TSDB.
type bkt struct {
	ub  float64
	cum float64
}

// latencyBuckets sums, per le bound, the windowed increase of every
// bucket series of the objective's latency metric that matches its
// subject. ok is false when no matching series produced an increase
// (no traffic, or fewer than two scrapes in the window).
func (e *Engine) latencyBuckets(o Objective, now time.Time, window time.Duration) ([]bkt, bool) {
	byUB := make(map[float64]float64)
	any := false
	bucketMetric := o.latencyMetric() + "_bucket"
	for _, lbl := range e.db.Series(bucketMetric) {
		le, haveLE := lbl["le"]
		if !haveLE || !o.matches(lbl) {
			continue
		}
		ub := math.Inf(1)
		if le != "+Inf" {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			ub = v
		}
		inc, ok := e.db.Increase(bucketMetric, lbl, now, window)
		if !ok {
			continue
		}
		byUB[ub] += inc
		any = true
	}
	if !any {
		return nil, false
	}
	out := make([]bkt, 0, len(byUB))
	for ub, cum := range byUB {
		out = append(out, bkt{ub: ub, cum: cum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ub < out[j].ub })
	return out, true
}

// goodAtTarget linearly interpolates the cumulative count of requests
// at or under the target bound, Prometheus histogram_quantile-style.
// Targets beyond the last finite bucket count only the last finite
// bucket as good — the conservative reading.
func goodAtTarget(buckets []bkt, target float64) float64 {
	prevUB, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if math.IsInf(b.ub, 1) {
			return prevCum
		}
		if target <= b.ub {
			if b.ub <= prevUB {
				return b.cum
			}
			frac := (target - prevUB) / (b.ub - prevUB)
			return prevCum + (b.cum-prevCum)*frac
		}
		prevUB, prevCum = b.ub, b.cum
	}
	return prevCum
}

// bucketQuantile reads the q-quantile off reconstructed buckets.
func bucketQuantile(buckets []bkt, q float64) float64 {
	if len(buckets) == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].cum
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	prevUB, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if math.IsInf(b.ub, 1) {
				return prevUB
			}
			if b.cum <= prevCum {
				return b.ub
			}
			return prevUB + (b.ub-prevUB)*(rank-prevCum)/(b.cum-prevCum)
		}
		prevUB, prevCum = b.ub, b.cum
	}
	return prevUB
}

// latencySLI returns (good, total) events over the window.
func (e *Engine) latencySLI(o Objective, now time.Time, window time.Duration) (good, total float64, ok bool) {
	buckets, ok := e.latencyBuckets(o, now, window)
	if !ok {
		return 0, 0, false
	}
	total = buckets[len(buckets)-1].cum
	if total <= 0 {
		return 0, 0, false
	}
	return goodAtTarget(buckets, o.Target.Seconds()), total, true
}

// availabilitySLI returns (good, total) events over the window from the
// first requests/errors counter pair with matching traffic.
func (e *Engine) availabilitySLI(o Objective, now time.Time, window time.Duration) (good, total float64, ok bool) {
	pairs := availabilityPairs
	if o.RequestsMetric != "" {
		pairs = [][2]string{{o.RequestsMetric, o.ErrorsMetric}}
	}
	for _, pair := range pairs {
		var requests, errors float64
		any := false
		for _, lbl := range e.db.Series(pair[0]) {
			if !o.matches(lbl) {
				continue
			}
			if inc, ok := e.db.Increase(pair[0], lbl, now, window); ok {
				requests += inc
				any = true
			}
		}
		if !any || requests <= 0 {
			continue
		}
		if pair[1] != "" {
			for _, lbl := range e.db.Series(pair[1]) {
				if !o.matches(lbl) {
					continue
				}
				if inc, ok := e.db.Increase(pair[1], lbl, now, window); ok {
					errors += inc
				}
			}
		}
		if errors > requests {
			errors = requests
		}
		return requests - errors, requests, true
	}
	return 0, 0, false
}

// burnRate converts (good, total) into a burn rate against a goal: 1.0
// means the budget drains exactly at the window's sustainable pace.
func burnRate(good, total, goal float64) float64 {
	budget := 1 - goal
	if total <= 0 || budget <= 0 {
		return 0
	}
	return (1 - good/total) / budget
}

// sliFunc is the shared shape of the two SLI extractors.
type sliFunc func(o Objective, now time.Time, window time.Duration) (good, total float64, ok bool)

func (e *Engine) sli(kind string) (sliFunc, func(Objective) float64) {
	if kind == "availability" {
		return e.availabilitySLI, func(o Objective) float64 { return o.Goal }
	}
	return e.latencySLI, func(o Objective) float64 { return o.Quantile }
}

// Rules derives the burn-rate alert rules — one per burn window, each
// observing every objective × SLI with data as a separate labelled
// series {slo, sli}. The observation value is min(long burn, short
// burn): the alert breaches only while both windows burn past the
// factor. For is zero because the long window already is the
// hysteresis.
func (e *Engine) Rules() []alert.Rule {
	canonical := e.Windows
	if canonical == nil {
		canonical = DefaultBurnWindows(defaultWindow)
	}
	rules := make([]alert.Rule, 0, len(canonical))
	for _, w := range canonical {
		name := w.Name
		title := name
		if title != "" {
			title = strings.ToUpper(title[:1]) + title[1:]
		}
		rules = append(rules, alert.Rule{
			Name: "SLO" + title + "Burn",
			Help: fmt.Sprintf("error budget burning over %gx its sustainable rate (%s windows)",
				w.Factor, name),
			Source:    e.burnSource(name),
			Op:        alert.OpGreater,
			Threshold: w.Factor,
			Severity:  w.Severity,
		})
	}
	return rules
}

// burnSource observes min(long, short) burn per objective and SLI for
// the named window.
func (e *Engine) burnSource(windowName string) alert.Source {
	return alert.Func(func(now time.Time) []alert.Observation {
		var out []alert.Observation
		for _, o := range e.Objectives() {
			var w *BurnWindow
			for _, cand := range e.windowsFor(o) {
				if cand.Name == windowName {
					w = &cand
					break
				}
			}
			if w == nil {
				continue
			}
			for _, kind := range []string{"latency", "availability"} {
				fn, goal := e.sli(kind)
				goodL, totalL, okL := fn(o, now, w.Long)
				goodS, totalS, okS := fn(o, now, w.Short)
				if !okL || !okS {
					continue
				}
				burn := math.Min(
					burnRate(goodL, totalL, goal(o)),
					burnRate(goodS, totalS, goal(o)))
				out = append(out, alert.Observation{
					Labels: metrics.Labels{"slo": o.Name, "sli": kind},
					Value:  burn,
				})
			}
		}
		return out
	})
}

// exemplarFor picks the freshest trace exemplar of an over-target
// request from the objective's latency buckets: the exact request
// behind the burning quantile. Falls back to any exemplar of the
// metric when no over-target one exists.
func (e *Engine) exemplarFor(o Objective) string {
	bucketMetric := o.latencyMetric() + "_bucket"
	target := o.Target.Seconds()
	var best metrics.Exemplar
	var fallback metrics.Exemplar
	for _, lbl := range e.db.Series(bucketMetric) {
		if _, haveLE := lbl["le"]; !haveLE || !o.matches(lbl) {
			continue
		}
		ex, ok := e.db.Exemplar(bucketMetric, lbl)
		if !ok {
			continue
		}
		if ex.Value > target && ex.Time.After(best.Time) {
			best = ex
		}
		if ex.Time.After(fallback.Time) {
			fallback = ex
		}
	}
	if best.TraceID != "" {
		return best.TraceID
	}
	return fallback.TraceID
}

// BurnStatus is one burn window's current reading for an SLI.
type BurnStatus struct {
	Window    BurnWindow `json:"window"`
	LongBurn  float64    `json:"long_burn"`
	ShortBurn float64    `json:"short_burn"`
	// Breached is the alert condition: both windows past the factor.
	Breached bool `json:"breached"`
	HasData  bool `json:"has_data"`
}

// SLIReport is one SLI's budget accounting over the objective window.
type SLIReport struct {
	Kind string  `json:"kind"` // "latency" or "availability"
	Goal float64 `json:"goal"` // fraction of events that must be good
	// Good/Total are events over the objective window.
	Good  float64 `json:"good"`
	Total float64 `json:"total"`
	// BadFraction is 1 - Good/Total.
	BadFraction float64 `json:"bad_fraction"`
	// BudgetRemaining is the unspent fraction of the error budget,
	// clamped to [0,1]: 1 = untouched, 0 = depleted (or overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
	// ActualQuantile is the measured latency at the objective's
	// quantile over the window (latency SLI only), in seconds.
	ActualQuantile float64 `json:"actual_quantile,omitempty"`
	// ExemplarTrace is the trace ID of a recent over-target request
	// (latency SLI only; empty when none was sampled).
	ExemplarTrace string       `json:"exemplar_trace,omitempty"`
	Burns         []BurnStatus `json:"burns"`
	HasData       bool         `json:"has_data"`
}

// Report is one objective's full accounting.
type Report struct {
	Name         string        `json:"name"`
	Subject      string        `json:"subject"`
	Spec         string        `json:"spec"`
	Window       time.Duration `json:"window_ns"`
	Latency      SLIReport     `json:"latency"`
	Availability SLIReport     `json:"availability"`
}

// ReportAt computes every objective's report at the given instant.
func (e *Engine) ReportAt(now time.Time) []Report {
	objectives := e.Objectives()
	out := make([]Report, 0, len(objectives))
	for _, o := range objectives {
		r := Report{
			Name:    o.Name,
			Subject: o.subject(),
			Spec:    o.String(),
			Window:  o.window(),
		}
		for _, kind := range []string{"latency", "availability"} {
			fn, goalOf := e.sli(kind)
			goal := goalOf(o)
			sr := SLIReport{Kind: kind, Goal: goal, BudgetRemaining: 1}
			if good, total, ok := fn(o, now, o.window()); ok {
				sr.HasData = true
				sr.Good, sr.Total = good, total
				sr.BadFraction = 1 - good/total
				if budget := 1 - goal; budget > 0 {
					sr.BudgetRemaining = clamp01(1 - sr.BadFraction/budget)
				}
			}
			if kind == "latency" {
				if buckets, ok := e.latencyBuckets(o, now, o.window()); ok {
					// bucketQuantile is NaN while the series exist but
					// carry no events in the window; NaN is not valid
					// JSON, so it would 500 the whole /debug/slo page.
					if q := bucketQuantile(buckets, o.Quantile); !math.IsNaN(q) {
						sr.ActualQuantile = q
					}
				}
				sr.ExemplarTrace = e.exemplarFor(o)
			}
			for _, w := range e.windowsFor(o) {
				bs := BurnStatus{Window: w}
				goodL, totalL, okL := fn(o, now, w.Long)
				goodS, totalS, okS := fn(o, now, w.Short)
				if okL && okS {
					bs.HasData = true
					bs.LongBurn = burnRate(goodL, totalL, goal)
					bs.ShortBurn = burnRate(goodS, totalS, goal)
					bs.Breached = bs.LongBurn > w.Factor && bs.ShortBurn > w.Factor
				}
				sr.Burns = append(sr.Burns, bs)
			}
			if kind == "latency" {
				r.Latency = sr
			} else {
				r.Availability = sr
			}
		}
		out = append(out, r)
	}
	return out
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}

// Handler serves the reports as JSON at /debug/slo. ?slo= filters by
// objective name.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reports := e.ReportAt(e.Now())
		if name := r.URL.Query().Get("slo"); name != "" {
			kept := reports[:0]
			for _, rep := range reports {
				if rep.Name == name {
					kept = append(kept, rep)
				}
			}
			reports = kept
		}
		obs.ServeTail(w, r, reports)
	})
}
