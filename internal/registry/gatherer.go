package registry

import (
	"sync"
	"time"

	"blastfunction/internal/metrics"
)

// Gatherer is the paper's Metrics Gatherer: it reads Device Manager
// metrics collected by the (mini-)Prometheus scraper and turns them into
// the DeviceMetrics view Algorithm 1 consumes. FPGA time utilization is
// computed as the rate of the device's busy-seconds counter, converted
// from modelled seconds to wall seconds with the manager's advertised
// time scale.
//
// Computed views are cached per TSDB generation: the scraper appends one
// batch per scrape, so between scrapes every allocation sees identical
// series and recomputing TSDB.Rate per candidate inside Allocate's lock
// is pure waste at hundreds of boards. The cache trades a frozen rate
// window endpoint (now is pinned to the first query of the generation)
// for O(1) repeat lookups — well inside one scrape interval of staleness
// the registry already tolerates.
type Gatherer struct {
	db *metrics.TSDB
	// Window is the sliding window of the utilization rate; defaults to
	// 30 seconds.
	Window time.Duration
	// Now is injectable for deterministic tests.
	Now func() time.Time

	mu       sync.Mutex
	gen      uint64
	cache    map[string]cachedDeviceMetrics
	computes uint64
	hits     uint64
}

// cachedDeviceMetrics caches one DeviceMetrics answer, including the
// negative ("no data yet") case.
type cachedDeviceMetrics struct {
	m  DeviceMetrics
	ok bool
}

// NewGatherer creates a Gatherer over the TSDB the scraper feeds.
func NewGatherer(db *metrics.TSDB) *Gatherer {
	return &Gatherer{
		db:     db,
		Window: 30 * time.Second,
		Now:    time.Now,
		cache:  make(map[string]cachedDeviceMetrics),
	}
}

// GathererStats counts how the per-generation cache is doing.
type GathererStats struct {
	// Computes is how many DeviceMetrics views were derived from TSDB
	// queries (the expensive path).
	Computes uint64
	// CacheHits is how many lookups were answered from the generation
	// cache without touching the TSDB.
	CacheHits uint64
}

// Stats reports the cache counters.
func (g *Gatherer) Stats() GathererStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GathererStats{Computes: g.computes, CacheHits: g.hits}
}

// DeviceMetrics implements MetricsSource.
func (g *Gatherer) DeviceMetrics(deviceID, node string) (DeviceMetrics, bool) {
	key := deviceID + "\x00" + node
	gen := g.db.Generation()
	g.mu.Lock()
	if gen != g.gen {
		g.gen = gen
		g.cache = make(map[string]cachedDeviceMetrics)
	}
	if c, ok := g.cache[key]; ok {
		g.hits++
		g.mu.Unlock()
		return c.m, c.ok
	}
	g.computes++
	g.mu.Unlock()

	m, ok := g.compute(deviceID, node)

	g.mu.Lock()
	// A scrape may have landed while we computed; only cache the answer
	// if it still belongs to the generation we started from.
	if g.gen == gen {
		g.cache[key] = cachedDeviceMetrics{m: m, ok: ok}
	}
	g.mu.Unlock()
	return m, ok
}

// compute derives the DeviceMetrics view from the TSDB.
func (g *Gatherer) compute(deviceID, node string) (DeviceMetrics, bool) {
	lbl := metrics.Labels{"device": deviceID, "node": node}
	now := g.Now()
	var m DeviceMetrics
	rate, ok := g.db.Rate("bf_device_busy_seconds_total", lbl, now, g.Window)
	if !ok {
		return DeviceMetrics{}, false
	}
	// The busy counter advances in modelled seconds; scale converts one
	// modelled second into wall seconds so the utilization is a wall
	// fraction. An unscaled board (scale 1) needs no conversion; scale 0
	// (no sleeping, tests) leaves the raw rate, which is still a usable
	// relative load signal.
	if scale, ok := g.db.Latest("bf_device_time_scale", lbl); ok && scale > 0 {
		rate *= scale
	}
	m.Utilization = rate
	if v, ok := g.db.Latest("bf_connected_clients", lbl); ok {
		m.Connected = v
	}
	if v, ok := g.db.Latest("bf_queue_depth", lbl); ok {
		m.QueueDepth = v
	}
	return m, true
}

// StaticMetrics is a fixed MetricsSource for tests and the DES harness.
type StaticMetrics map[string]DeviceMetrics

// DeviceMetrics implements MetricsSource.
func (s StaticMetrics) DeviceMetrics(deviceID, node string) (DeviceMetrics, bool) {
	m, ok := s[deviceID]
	return m, ok
}
