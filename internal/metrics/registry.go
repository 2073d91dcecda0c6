// Package metrics is the reproduction's Prometheus substitute.
//
// The paper's Accelerators Registry consumes Device Manager metrics (FPGA
// time utilization above all) through a Prometheus service. Offline
// modules rule out the real client libraries, so this package provides the
// pieces BlastFunction needs: counters/gauges with labels, the text
// exposition format over HTTP, a polling scraper, and a small in-memory
// TSDB with the windowed rate/average queries the Metrics Gatherer runs.
package metrics

import (
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Labels is an immutable label set. Keep them small: every distinct
// combination creates one time series.
type Labels map[string]string

// appendKey appends the labels in exposition syntax without the braces,
// a="x",b="y", sorted by name: the text a series is found and rendered by.
func (l Labels) appendKey(b []byte) []byte {
	var arr [8]string
	names := arr[:0]
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, k := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l[k])
	}
	return b
}

// String renders labels in exposition syntax: {a="x",b="y"}.
func (l Labels) String() string {
	if len(l) == 0 {
		return ""
	}
	var arr [128]byte
	return string(append(l.appendKey(append(arr[:0], '{')), '}'))
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one (name, labels) time series: a counter or gauge value, or a
// histogram's buckets. A handle (Counter, Gauge, Histogram) points at one;
// a hot path resolves its handles once and keeps them, so recording is a
// lock and a store with no look-up and no allocation.
type series struct {
	key string // the label set as Labels.appendKey renders it, fixed at creation

	mu    sync.Mutex
	value float64 // counter or gauge value; the sum of a histogram's observations
	// Histograms only.
	buckets   []float64 // the family's bounds, shared by its series
	counts    []uint64
	count     uint64
	exemplars []Exemplar // nil until the first exemplar; len(buckets)+1 (+Inf last)
}

// family is the series of one metric name, kept sorted by key: look-ups
// search the slice and Render walks it.
type family struct {
	name    string
	help    string
	typ     string
	buckets []float64 // histograms only: sorted upper bounds, +Inf implied
	les     []string  // histograms only: the le label of each bucket, "+Inf" last
	mu      sync.Mutex
	series  []*series
}

func (f *family) get(l Labels) *series {
	var arr [128]byte
	k := l.appendKey(arr[:0]) // compared as a string without becoming one: a hit allocates nothing
	f.mu.Lock()
	defer f.mu.Unlock()
	i := sort.Search(len(f.series), func(i int) bool { return f.series[i].key >= string(k) })
	if i < len(f.series) && f.series[i].key == string(k) {
		return f.series[i]
	}
	s := &series{key: string(k)}
	if f.typ == typeHistogram {
		s.buckets, s.counts = f.buckets, make([]uint64, len(f.buckets))
	}
	f.series = append(f.series, nil)
	copy(f.series[i+1:], f.series[i:])
	f.series[i] = s
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Add increases the counter; negative deltas are ignored to preserve
// monotonicity.
func (c Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.value += v
	c.s.mu.Unlock()
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add adjusts the gauge by v (may be negative).
func (g Gauge) Add(v float64) {
	g.s.mu.Lock()
	g.s.value += v
	g.s.mu.Unlock()
}

// Value returns the current value.
func (g Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// Registry holds metric families and renders the exposition format.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family // registration order
	size  int       // bytes the last Render produced: the next one's buffer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family returns the named family, creating it on first use (buckets are
// fixed then). A name already registered with another type is a wiring
// bug: it is logged and the caller gets a family no scrape will ever see,
// so its handles are no-ops as far as the exposition goes and the first
// registration keeps its series to itself.
func (r *Registry) family(name, help, typ string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if ok && f.typ == typ {
		return f
	}
	nf := &family{name: name, help: help, typ: typ}
	if typ == typeHistogram {
		nf.buckets = append(nf.buckets, buckets...)
		sort.Float64s(nf.buckets)
		for _, ub := range nf.buckets {
			nf.les = append(nf.les, strconv.FormatFloat(ub, 'g', -1, 64))
		}
		nf.les = append(nf.les, "+Inf")
	}
	if ok {
		log.Printf("metrics: %s is registered as a %s; the %s asked for under that name is not exported", name, f.typ, typ)
		return nf
	}
	r.fams[name] = nf
	r.order = append(r.order, nf)
	return nf
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) Counter {
	return Counter{r.family(name, help, typeCounter, nil).get(labels)}
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) Gauge {
	return Gauge{r.family(name, help, typeGauge, nil).get(labels)}
}

// Render writes the registry in the Prometheus text exposition format:
// counters and gauges in registration order, then histograms in theirs.
// It holds a family's lock only to copy its series list and a series' lock
// only to copy its values; formatting happens outside both, so a scrape
// never delays a look-up or an observation by more than a copy.
func (r *Registry) Render() string { return string(r.render()) }

func (r *Registry) render() []byte {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	b := make([]byte, 0, r.size+r.size/8)
	r.mu.Unlock()

	var (
		list      []*series
		counts    []uint64
		exemplars []Exemplar
	)
	for _, hist := range []bool{false, true} {
		for _, f := range fams {
			if (f.typ == typeHistogram) != hist {
				continue
			}
			b = append(append(append(b, "# HELP "...), f.name...), ' ')
			b = append(append(b, f.help...), "\n# TYPE "...)
			b = append(append(append(b, f.name...), ' '), f.typ...)
			b = append(b, '\n')
			f.mu.Lock()
			list = append(list[:0], f.series...)
			f.mu.Unlock()
			for _, s := range list {
				s.mu.Lock()
				value, count := s.value, s.count
				counts = append(counts[:0], s.counts...)
				exemplars = append(exemplars[:0], s.exemplars...)
				s.mu.Unlock()
				if hist {
					b = appendHistogram(b, f, s.key, counts, count, value, exemplars)
					continue
				}
				b = appendSample(b, f.name, "", s.key, "")
				b = strconv.AppendFloat(b, value, 'g', -1, 64)
				b = append(b, '\n')
			}
		}
	}
	r.mu.Lock()
	r.size = len(b)
	r.mu.Unlock()
	return b
}

// appendSample appends one sample line up to and including the space
// before its value: name+suffix, then the label set {key,le="le"} with
// whichever of the two parts is present.
func appendSample(b []byte, name, suffix, key, le string) []byte {
	b = append(append(b, name...), suffix...)
	if key != "" || le != "" {
		b = append(append(b, '{'), key...)
		if le != "" {
			if key != "" {
				b = append(b, ',')
			}
			b = append(append(append(b, `le="`...), le...), '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// Handler serves the exposition format, like promhttp.Handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		b := r.render()
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		w.Write(b)
	})
}
