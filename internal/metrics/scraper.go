package metrics

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
	"unsafe"
)

// Scraper polls metric endpoints and feeds a TSDB, standing in for the
// Prometheus server of the paper's deployment.
type Scraper struct {
	db       *TSDB
	interval time.Duration
	client   *http.Client
	// Now is injectable for deterministic tests.
	Now func() time.Time
	// Timeout bounds each individual target's scrape. Default 5s.
	Timeout time.Duration
	// OnHealth, when set, is called whenever a target transitions
	// between healthy and failing (including a first scrape that fails).
	// Callbacks run from scrape goroutines; keep them cheap.
	OnHealth func(target string, up bool, err error)
	// NoJitter disables the random start-phase delay in Run. Tests that
	// drive Run against a wall clock set it for determinism.
	NoJitter bool

	mu      sync.Mutex
	targets map[string]string    // target name -> URL
	locals  map[string]*Registry // in-process targets, read without HTTP
	errs    map[string]error     // last scrape error per target
}

// NewScraper creates a scraper feeding db every interval.
func NewScraper(db *TSDB, interval time.Duration) *Scraper {
	if interval <= 0 {
		interval = time.Second
	}
	return &Scraper{
		db:       db,
		interval: interval,
		client:   &http.Client{},
		Now:      time.Now,
		Timeout:  5 * time.Second,
		targets:  make(map[string]string),
		locals:   make(map[string]*Registry),
		errs:     make(map[string]error),
	}
}

// AddTarget registers a named scrape endpoint (e.g. a Device Manager's
// /metrics URL). Re-adding a name replaces its URL.
func (s *Scraper) AddTarget(name, url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.targets[name] = url
}

// AddLocalTarget registers an in-process registry as a scrape target.
// It is rendered and parsed through the same text path as HTTP targets
// — exemplars and all — so a binary's own series (its runtime collector,
// the gateway's per-function counters) land in the TSDB without the
// process scraping itself over loopback.
func (s *Scraper) AddLocalTarget(name string, reg *Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locals[name] = reg
}

// Targets lists the names of the HTTP targets, not the local ones.
func (s *Scraper) Targets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.targets))
	for n := range s.targets {
		out = append(out, n)
	}
	return out
}

// LastError returns the most recent scrape error for a target (nil when
// healthy or unknown).
func (s *Scraper) LastError(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errs[name]
}

// ScrapeOnce polls every target once at the current time. Targets are
// scraped concurrently, each under its own deadline: a hung Device Manager
// costs one timeout, not a serial stall that starves every target behind
// it of fresh samples (and would delay the Registry's health verdicts on
// all of them). Tests and the DES experiments call it directly for
// determinism; all samples share one timestamp.
func (s *Scraper) ScrapeOnce() {
	type job struct {
		name  string
		fetch func() ([]Sample, error)
	}
	s.mu.Lock()
	jobs := make([]job, 0, len(s.targets)+len(s.locals))
	for n, u := range s.targets {
		url := u
		jobs = append(jobs, job{n, func() ([]Sample, error) { return s.fetch(url) }})
	}
	for n, r := range s.locals {
		reg := r
		jobs = append(jobs, job{n, func() ([]Sample, error) { return Parse(reg.Render()) }})
	}
	s.mu.Unlock()
	now := s.Now()
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(name string, fetch func() ([]Sample, error)) {
			defer wg.Done()
			start := time.Now()
			samples, err := fetch()
			elapsed := time.Since(start)
			s.mu.Lock()
			prev, known := s.errs[name]
			s.errs[name] = err
			s.mu.Unlock()
			if s.OnHealth != nil {
				// A never-scraped target is presumed healthy, so the
				// first failure reports a transition but the first
				// success stays quiet.
				healthyBefore := !known || prev == nil
				healthyNow := err == nil
				if healthyBefore != healthyNow {
					s.OnHealth(name, healthyNow, err)
				}
			}
			// Scrape health is itself a pair of series, so alert rules
			// can fire on a dead target without reaching into the
			// scraper's private error map.
			up := 1.0
			if err != nil {
				up = 0
			}
			health := []Sample{
				{Name: "bf_scrape_up", Labels: Labels{"target": name}, Value: up},
				{Name: "bf_scrape_duration_seconds", Labels: Labels{"target": name}, Value: elapsed.Seconds()},
			}
			if err == nil {
				samples = append(samples, health...)
			} else {
				samples = health
			}
			s.db.Append(now, samples) // TSDB appends are lock-protected
		}(j.name, j.fetch)
	}
	wg.Wait()
}

func (s *Scraper) fetch(url string) ([]Sample, error) {
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: scrape %s: HTTP %d", url, resp.StatusCode)
	}
	// One read into a buffer of the announced size, to one byte past the
	// bound: an oversize exposition fails, where a cut one would parse.
	const maxBody = 8 << 20
	var body bytes.Buffer
	body.Grow(int(min(max(resp.ContentLength, 0), maxBody)) + bytes.MinRead)
	if _, err := body.ReadFrom(io.LimitReader(resp.Body, maxBody+1)); err != nil {
		return nil, err
	}
	if body.Len() > maxBody {
		return nil, fmt.Errorf("metrics: scrape %s: exposition exceeds %d MiB", url, maxBody>>20)
	}
	// The samples alias the body, which nothing writes again.
	return Parse(unsafe.String(unsafe.SliceData(body.Bytes()), body.Len()))
}

// startJitter picks a random phase in [0, interval): many managers
// started together (one systemd burst, one compose up) would otherwise
// tick in lockstep and hit the registry as a synchronized burst every
// interval forever.
func (s *Scraper) startJitter() time.Duration {
	if s.interval <= 0 {
		return 0
	}
	return rand.N(s.interval)
}

// Run scrapes on the configured interval until ctx is cancelled. The
// first tick waits an extra random fraction of the interval (see
// startJitter) unless NoJitter is set.
func (s *Scraper) Run(ctx context.Context) {
	if !s.NoJitter {
		select {
		case <-ctx.Done():
			return
		case <-time.After(s.startJitter()):
		}
	}
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.ScrapeOnce()
		}
	}
}
