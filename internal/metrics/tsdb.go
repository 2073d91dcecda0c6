package metrics

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is one timestamped observation.
type Point struct {
	T time.Time
	V float64
}

// TSDB is a small in-memory time-series store with bounded retention —
// the slice of Prometheus the Metrics Gatherer needs.
type TSDB struct {
	mu        sync.Mutex
	retention time.Duration
	series    map[string]*stored // keyed by Sample.SeriesKey()
	key       []byte             // look-up scratch: the key of the series being found
	gen       uint64             // bumped once per Append (scrape generation)
}

// stored is one series, its strings copied off the scrape that created it.
type stored struct {
	name     string
	labels   Labels
	points   []Point
	exemplar Exemplar // TraceID "" until the series carries one
}

// NewTSDB creates a store keeping points for the given retention window.
func NewTSDB(retention time.Duration) *TSDB {
	if retention <= 0 {
		retention = 15 * time.Minute
	}
	return &TSDB{retention: retention, series: make(map[string]*stored)}
}

// lookup finds a series by its SeriesKey, built in db.key and looked up
// without becoming a string: ingest and every query, under db.mu.
func (db *TSDB) lookup(name string, labels Labels) *stored {
	db.key = append(db.key[:0], name...)
	if len(labels) > 0 {
		db.key = append(labels.appendKey(append(db.key, '{')), '}')
	}
	return db.series[string(db.key)]
}

// Append stores samples observed at time t. Each call advances the
// store's generation (see Generation), even when samples is empty.
// A new series copies its strings: samples may alias a scraped body.
func (db *TSDB) Append(t time.Time, samples []Sample) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.gen++
	cutoff := t.Add(-db.retention)
	for _, s := range samples {
		st := db.lookup(s.Name, s.Labels)
		if st == nil {
			// One copy of the key holds the name and the label set, parsed
			// back: label names hold no '=', so it parses back as given.
			k := string(db.key)
			st = &stored{name: k[:len(s.Name)]}
			if len(k) > len(s.Name) {
				st.labels, _, _ = parseLabelSet(k[len(s.Name):])
			}
			db.series[k] = st
		}
		pts := append(st.points, Point{T: t, V: s.Value})
		// Drop points past retention (they are sorted by time).
		i := 0
		for i < len(pts) && pts[i].T.Before(cutoff) {
			i++
		}
		st.points = pts[i:]
		if e := s.Exemplar; e != nil && e.TraceID != "" {
			if e.TraceID != st.exemplar.TraceID {
				st.exemplar.TraceID = strings.Clone(e.TraceID)
			}
			st.exemplar.Value, st.exemplar.Time = e.Value, e.Time
		}
	}
}

// Exemplar returns the latest exemplar stored for the series, if any.
func (db *TSDB) Exemplar(name string, labels Labels) (Exemplar, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if st := db.lookup(name, labels); st != nil && st.exemplar.TraceID != "" {
		return st.exemplar, true
	}
	return Exemplar{}, false
}

// Generation reports how many Append batches the store has absorbed.
// Between two identical generations no series changed, so derived values
// (rates, windows) computed from the store are still valid — the Metrics
// Gatherer keys its per-scrape DeviceMetrics cache on this.
func (db *TSDB) Generation() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.gen
}

// Latest returns the most recent value of the series, if any.
func (db *TSDB) Latest(name string, labels Labels) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := db.lookup(name, labels)
	if st == nil || len(st.points) == 0 {
		return 0, false
	}
	return st.points[len(st.points)-1].V, true
}

// window returns the points of a series within [now-window, now].
func (db *TSDB) window(name string, labels Labels, now time.Time, window time.Duration) []Point {
	var pts []Point
	if st := db.lookup(name, labels); st != nil {
		pts = st.points
	}
	lo := sort.Search(len(pts), func(i int) bool {
		return !pts[i].T.Before(now.Add(-window))
	})
	return pts[lo:]
}

// Rate computes the per-second increase of a counter series over the
// window ending at now — the equivalent of PromQL's rate(). It needs at
// least two points in the window.
func (db *TSDB) Rate(name string, labels Labels, now time.Time, window time.Duration) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts := db.window(name, labels, now, window)
	if len(pts) < 2 {
		return 0, false
	}
	first, last := pts[0], pts[len(pts)-1]
	dt := last.T.Sub(first.T).Seconds()
	if dt <= 0 {
		return 0, false
	}
	dv := last.V - first.V
	if dv < 0 {
		// Counter reset (manager restart): fall back to the last value
		// accumulated since the reset.
		dv = last.V
	}
	return dv / dt, true
}

// Increase computes the total growth of a counter series over the
// window ending at now — PromQL's increase() without extrapolation. Like
// Rate it needs at least two points in the window and falls back to the
// last value on a counter reset.
func (db *TSDB) Increase(name string, labels Labels, now time.Time, window time.Duration) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts := db.window(name, labels, now, window)
	if len(pts) < 2 {
		return 0, false
	}
	dv := pts[len(pts)-1].V - pts[0].V
	if dv < 0 {
		dv = pts[len(pts)-1].V
	}
	return dv, true
}

// Delta computes last-minus-first of a gauge series over the window
// ending at now. Unlike Increase it has no counter-reset handling and
// may be negative — the right shape for goroutine counts and heap
// sizes, where a drop is a recovery, not a reset.
func (db *TSDB) Delta(name string, labels Labels, now time.Time, window time.Duration) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts := db.window(name, labels, now, window)
	if len(pts) < 2 {
		return 0, false
	}
	return pts[len(pts)-1].V - pts[0].V, true
}

// Avg computes the mean of a gauge series over the window ending at now.
func (db *TSDB) Avg(name string, labels Labels, now time.Time, window time.Duration) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	pts := db.window(name, labels, now, window)
	if len(pts) == 0 {
		return 0, false
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts)), true
}

// Series lists the label sets currently stored for a metric name.
func (db *TSDB) Series(name string) []Labels {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Labels
	for _, st := range db.series {
		if st.name == name {
			out = append(out, st.labels)
		}
	}
	return out
}
