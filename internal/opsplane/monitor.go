package opsplane

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/flash"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/registry"
	"blastfunction/internal/slo"
)

// MonitorConfig parameterizes the control-plane monitor. Register binds
// the fields the registry and the gateway expose under the same flags;
// the rest each binary sets itself.
type MonitorConfig struct {
	Scrape        time.Duration // scrape, device-sync and runtime-sample interval
	AlertInterval time.Duration
	ProfileDir    string // alert-triggered pprof and explain captures ("" disables)
	SLO           slo.Flag

	// Grace is how long a device stays unreachable before DeviceUnhealthy fires.
	Grace time.Duration
	// Window is the Gatherer's utilization rate window (0 keeps its default).
	Window time.Duration
	// FlashHistory persists the flash-window ledger across restarts ("" keeps it in memory).
	FlashHistory string
	// LatencyMetric fills every objective that names no latency histogram.
	LatencyMetric string
}

// Register binds the shared control-plane flags to fs.
func (c *MonitorConfig) Register(fs *flag.FlagSet) {
	fs.DurationVar(&c.Scrape, "scrape", 2*time.Second, "metrics scrape interval")
	fs.DurationVar(&c.AlertInterval, "alert-interval", 5*time.Second, "alert rule evaluation interval")
	fs.StringVar(&c.ProfileDir, "profile-dir", "", "directory receiving alert-triggered pprof snapshots and SLO fast-burn explain reports (empty disables)")
	fs.Var(&c.SLO, "slo", "service-level objective as name:p99<50ms:99.9%[:window] (repeatable)")
}

// Monitor is the Accelerators Registry with its Metrics Gatherer and the
// signals the control plane watches it through: a scraper feeding the
// TSDB from every registered device plus the process's own registry, the
// SLO engine, and the alert engine whose firings capture pprof snapshots
// and, on an SLO fast burn, an explain report of the exemplar trace.
type Monitor struct {
	Registry *registry.Registry
	// Metrics is the process's own metrics registry, served at /metrics
	// and scraped in process into the TSDB.
	Metrics *metrics.Registry

	p       *Process
	cfg     MonitorConfig
	flash   *flash.Service
	scraper *metrics.Scraper
	slo     *slo.Engine
	alerts  *alert.Engine
	capture obs.ProfileCapture
}

// NewMonitor builds the monitor for p and mounts /debug/alerts,
// /debug/slo, /debug/flash and /metrics on p.Mux. Start runs it.
func NewMonitor(p *Process, cfg MonitorConfig) (*Monitor, error) {
	db := metrics.NewTSDB(15 * time.Minute)
	gatherer := registry.NewGatherer(db)
	if cfg.Window > 0 {
		gatherer.Window = cfg.Window
	}
	reg, err := registry.New(registry.DefaultPolicy(gatherer))
	if err != nil {
		return nil, err
	}
	// Planning-mode lifecycle service: Allocate opens a flash window per
	// committed reprogram and the manager's Build closes it through the
	// reconfiguration gate.
	flashSvc, err := flash.New(flash.Config{HistoryPath: cfg.FlashHistory, Log: p.Log.Named("flash")})
	if err != nil {
		return nil, fmt.Errorf("flash history: %w", err)
	}
	reg.SetFlash(flashSvc)
	m := &Monitor{
		Registry: reg,
		Metrics:  metrics.NewRegistry(),
		p:        p,
		cfg:      cfg,
		flash:    flashSvc,
		scraper:  metrics.NewScraper(db, cfg.Scrape),
		slo:      slo.NewEngine(db),
		capture:  obs.ProfileCapture{Dir: cfg.ProfileDir},
	}
	m.scraper.OnHealth = func(target string, up bool, err error) {
		if up {
			p.Log.Info("scrape target recovered", "target", target)
		} else {
			p.Log.Warn("scrape target down", "target", target, "err", err)
		}
	}
	m.scraper.AddLocalTarget(p.Log.Component(), m.Metrics)
	for _, o := range cfg.SLO.Objectives {
		if o.LatencyMetric == "" {
			o.LatencyMetric = cfg.LatencyMetric
		}
		m.slo.Add(o)
	}
	m.alerts = alert.NewEngine(alert.Config{Log: p.Log.Named("alert"), Registry: m.Metrics, OnFire: m.onFire})
	m.alerts.Add(alert.DefaultRules(db)...)
	m.alerts.Add(m.slo.Rules()...)
	m.alerts.Add(alert.Rule{
		Name: "DeviceUnhealthy",
		Help: "device unreachable past the migration grace period",
		Source: alert.Func(func(time.Time) []alert.Observation {
			var out []alert.Observation
			for _, id := range reg.UnhealthyPastGrace(cfg.Grace) {
				out = append(out, alert.Observation{Labels: metrics.Labels{"device": id}, Value: 1})
			}
			return out
		}),
		Op: alert.OpGreater,
	})

	p.Mux.Handle("/debug/alerts", m.alerts.Handler())
	p.Mux.Handle("/debug/slo", m.slo.Handler())
	p.Mux.Handle("/debug/flash", flashSvc.Handler())
	p.Mux.Handle("/metrics", m.Metrics.Handler())
	return m, nil
}

// Start syncs the devices registered so far into the scraper and runs
// the scraper, the alert engine, the runtime collector and the device
// sync until the process stops.
func (m *Monitor) Start() {
	ctx := m.p.Context()
	m.syncDevices()
	m.p.CollectRuntime(m.Metrics, metrics.Labels{"component": m.p.Log.Component()}, m.cfg.Scrape)
	go m.scraper.Run(ctx)
	go m.alerts.Run(ctx, m.cfg.AlertInterval)
	go func() {
		ticker := time.NewTicker(m.cfg.Scrape)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				m.syncDevices()
			}
		}
	}()
}

// Close releases the flash service's history file.
func (m *Monitor) Close() { m.flash.Close() }

// syncDevices scrapes every device that advertises a metrics URL and
// feeds its last scrape verdict into allocation: an unreachable manager
// drops out until it answers again.
func (m *Monitor) syncDevices() {
	for _, d := range m.Registry.Devices() {
		if d.MetricsURL != "" {
			m.scraper.AddTarget(d.ID, d.MetricsURL)
			m.Registry.SetDeviceHealth(d.ID, m.scraper.LastError(d.ID))
		}
	}
}

// onFire snapshots pprof for every firing rule. An SLO fast-burn page
// also writes a postmortem next to the snapshots: the breaching
// objective's exemplar trace, explained across this process and every
// device manager the registry knows about.
func (m *Monitor) onFire(rule alert.Rule, st alert.Status) {
	lg := m.p.Log
	if paths, err := m.capture.Capture(rule.Name); err != nil {
		lg.Warn("profile capture failed", "rule", rule.Name, "err", err)
	} else if paths != nil {
		lg.Info("profile captured", "rule", rule.Name, "files", len(paths))
	}
	if rule.Name != "SLOFastBurn" || m.cfg.ProfileDir == "" {
		return
	}
	trace := exemplarTrace(m.slo, st.Labels["slo"])
	if trace == 0 {
		lg.Warn("no exemplar trace for explain capture", "slo", st.Labels["slo"])
		return
	}
	bases := []string{"http://" + m.p.addr}
	for _, d := range m.Registry.Devices() {
		if d.MetricsURL != "" {
			bases = append(bases, strings.TrimSuffix(d.MetricsURL, "/metrics"))
		}
	}
	go func() {
		if path, err := flightrec.CaptureExplain(m.cfg.ProfileDir, rule.Name, bases, trace); err != nil {
			lg.Warn("explain capture failed", "rule", rule.Name, "err", err)
		} else {
			lg.Info("explain captured", "rule", rule.Name, "file", path, "trace", trace)
		}
	}()
}

// exemplarTrace pulls the named objective's freshest latency exemplar:
// the concrete over-target request behind the burning quantile. An empty
// objective name matches any objective carrying an exemplar.
func exemplarTrace(eng *slo.Engine, objective string) obs.TraceID {
	for _, r := range eng.ReportAt(time.Now()) {
		if objective != "" && r.Name != objective {
			continue
		}
		if id, err := obs.ParseTraceID(r.Latency.ExemplarTrace); err == nil && id != 0 {
			return id
		}
	}
	return 0
}
