package metrics

import (
	"math"
	"strconv"
	"time"
)

// DefaultLatencyBuckets spans microseconds to seconds, suitable for the
// task-latency distributions the Device Manager exports.
var DefaultLatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5,
}

// Exemplar pins a trace to a histogram bucket: the trace ID of one
// sampled observation that landed in that bucket, with its value and
// arrival time. Buckets hold at most one exemplar (latest wins), which
// bounds memory regardless of observation churn.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

// exemplarNow is stubbed in tests that need deterministic exemplar
// timestamps.
var exemplarNow = time.Now

// Histogram observes a distribution into cumulative buckets, exposed in
// the standard <name>_bucket{le=...}/_sum/_count form.
type Histogram struct{ s *series }

// Observe records one value.
func (h Histogram) Observe(v float64) {
	h.s.observe(v, "")
}

// ObserveExemplar records one value and attaches traceID as the
// exemplar of the value's native bucket, replacing any previous one.
// An empty traceID degrades to a plain Observe, so callers can pass
// their trace unconditionally and unsampled requests cost nothing.
// Both wrappers are a single call to the shared observation body —
// each is small enough to inline, so the empty-trace path compiles
// down to exactly the call a plain Observe makes (a two-call wrapper
// exceeds the inliner's budget and was measurably slower).
func (h Histogram) ObserveExemplar(v float64, traceID string) {
	h.s.observe(v, traceID)
}

// observe is the shared observation body: the cumulative bucket walk,
// plus — only when traceID is non-empty — exemplar attachment to the
// value's native bucket. The unsampled path pays one predicted branch
// over the exemplar-free histogram, nothing more.
func (s *series) observe(v float64, traceID string) {
	var now time.Time
	if traceID != "" {
		now = exemplarNow()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	native := len(s.buckets) // +Inf unless a finite bucket holds v
	for i, ub := range s.buckets {
		if v <= ub {
			s.counts[i]++
			if i < native {
				native = i
			}
		}
	}
	s.value += v
	s.count++
	if traceID == "" {
		return
	}
	if s.exemplars == nil {
		s.exemplars = make([]Exemplar, len(s.buckets)+1)
	}
	s.exemplars[native] = Exemplar{TraceID: traceID, Value: v, Time: now}
}

// Exemplars snapshots the series' bucket exemplars keyed by the le
// bound as rendered ("0.005", "+Inf"). Buckets without an exemplar are
// absent.
func (h Histogram) Exemplars() map[string]Exemplar {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	out := make(map[string]Exemplar)
	for i, e := range h.s.exemplars {
		if e.TraceID == "" {
			continue
		}
		le := "+Inf"
		if i < len(h.s.buckets) {
			le = strconv.FormatFloat(h.s.buckets[i], 'g', -1, 64)
		}
		out[le] = e
	}
	return out
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Sum returns the sum of observations.
func (h Histogram) Sum() float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.value
}

// Quantile estimates the q-quantile (0..1) from the cumulative buckets by
// linear interpolation inside the containing bucket, like Prometheus'
// histogram_quantile.
func (h Histogram) Quantile(q float64) float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if h.s.count == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(h.s.count)
	lower := 0.0
	var prev uint64
	for i, ub := range h.s.buckets {
		c := h.s.counts[i]
		if float64(c) >= rank {
			inBucket := c - prev
			if inBucket == 0 {
				return ub
			}
			frac := (rank - float64(prev)) / float64(inBucket)
			return lower + (ub-lower)*frac
		}
		lower = ub
		prev = c
	}
	return lower // above the last finite bucket
}

// Histogram returns the histogram series for (name, labels), creating it
// with the given buckets on first use (nil selects
// DefaultLatencyBuckets). Buckets are fixed per metric name.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	return Histogram{r.family(name, help, typeHistogram, buckets).get(labels)}
}

// appendHistogram appends one histogram series' exposition lines from the
// values Render copied out of it: a cumulative _bucket line per bound with
// its exemplar clause if it has one (series without exemplars render
// byte-identically to the plain format), then _sum and _count.
func appendHistogram(b []byte, f *family, key string, counts []uint64, count uint64, sum float64, exemplars []Exemplar) []byte {
	for i, le := range f.les {
		b = appendSample(b, f.name, "_bucket", key, le)
		n := count // +Inf
		if i < len(counts) {
			n = counts[i]
		}
		b = strconv.AppendUint(b, n, 10)
		if i < len(exemplars) && exemplars[i].TraceID != "" {
			e := exemplars[i]
			b = strconv.AppendQuote(append(b, " # {trace_id="...), e.TraceID)
			b = strconv.AppendFloat(append(b, "} "...), e.Value, 'g', -1, 64)
			b = strconv.AppendFloat(append(b, ' '), float64(e.Time.UnixMilli())/1000, 'f', 3, 64)
		}
		b = append(b, '\n')
	}
	b = appendSample(b, f.name, "_sum", key, "")
	b = strconv.AppendFloat(b, sum, 'g', -1, 64)
	b = appendSample(append(b, '\n'), f.name, "_count", key, "")
	return append(strconv.AppendUint(b, count, 10), '\n')
}
