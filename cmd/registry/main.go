// Command registry serves the Accelerators Registry API: device and
// function registration plus live metrics, backed by a scraper that polls
// every registered Device Manager's metrics endpoint, an alert engine
// evaluating the gathered series, and a structured log ring.
//
// Example:
//
//	registry -listen :8080 -scrape 2s -alert-interval 5s
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/flash"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
	"blastfunction/internal/registry"
	"blastfunction/internal/slo"
)

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		interval      = flag.Duration("scrape", 2*time.Second, "metrics scrape interval")
		window        = flag.Duration("window", 30*time.Second, "utilization rate window")
		alertInterval = flag.Duration("alert-interval", 5*time.Second, "alert rule evaluation interval")
		grace         = flag.Duration("grace", 30*time.Second, "unhealthy grace before the DeviceUnhealthy alert fires")
		logLevel      = flag.String("log-level", "info", "minimum level mirrored to stderr (debug|info|warn|error)")
		logRing       = flag.Int("log-ring", 4096, "events kept in the /debug/logs ring")
		flashHist     = flag.String("flash-history", "", "append-only JSONL file persisting the flash-window history across restarts")
		profileDir    = flag.String("profile-dir", "", "directory receiving alert-triggered pprof snapshots and SLO fast-burn explain reports (empty disables)")
		flightLedger  = flag.String("flight-ledger", "", "durable JSONL spill file for notable flights")
		sloFlag       slo.Flag
	)
	flag.Var(&sloFlag, "slo", "service-level objective as name:p99<50ms:99.9%[:window] (repeatable)")
	flag.Parse()

	sinkLevel, err := logx.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("registry: %v", err)
	}
	rootLog := logx.New(logx.Config{
		Component: "registry",
		RingSize:  *logRing,
		Sink:      logx.TextSink(os.Stderr),
		SinkLevel: sinkLevel,
	})

	db := metrics.NewTSDB(15 * time.Minute)
	scraper := metrics.NewScraper(db, *interval)
	scraper.OnHealth = func(target string, up bool, err error) {
		if up {
			rootLog.Info("scrape target recovered", "target", target)
		} else {
			rootLog.Warn("scrape target down", "target", target, "err", err)
		}
	}
	gatherer := registry.NewGatherer(db)
	gatherer.Window = *window
	reg, err := registry.New(registry.DefaultPolicy(gatherer))
	if err != nil {
		log.Fatalf("registry: %v", err)
	}
	// Planning-mode lifecycle service: Allocate opens a flash window per
	// committed reprogram, the Build call closes it through the
	// reconfiguration gate, and -flash-history makes the ledger survive
	// registry restarts. Served at /debug/flash for blastctl.
	flashSvc, err := flash.New(flash.Config{
		HistoryPath: *flashHist,
		Log:         rootLog.Named("flash"),
	})
	if err != nil {
		log.Fatalf("registry: flash history: %v", err)
	}
	defer flashSvc.Close()
	reg.SetFlash(flashSvc)

	// The alert engine evaluates the same series Algorithm 1 reads, plus
	// the registry's own health verdicts; its firing gauge is exported
	// through a local metrics registry at /metrics. The registry's own
	// runtime series feed the TSDB through a local scrape target so the
	// GoroutineLeak/HeapGrowth rules cover this process too.
	alertReg := metrics.NewRegistry()
	runtimeCol := obs.NewRuntimeCollector(alertReg, metrics.Labels{"component": "registry"})
	scraper.AddLocalTarget("registry", alertReg)
	capture := &obs.ProfileCapture{Dir: *profileDir}
	sloEngine := slo.NewEngine(db)
	sloEngine.Add(sloFlag.Objectives...)
	flightRec := flightrec.New(flightrec.Config{
		Process:    "registry",
		LedgerPath: *flightLedger,
	})
	defer flightRec.Close()
	engine := alert.NewEngine(alert.Config{
		Log:      rootLog.Named("alert"),
		Registry: alertReg,
		OnFire: func(rule alert.Rule, st alert.Status) {
			if paths, err := capture.Capture(rule.Name); err != nil {
				rootLog.Warn("profile capture failed", "rule", rule.Name, "err", err)
			} else if paths != nil {
				rootLog.Info("profile captured", "rule", rule.Name, "files", len(paths))
			}
			// An SLO fast-burn page writes a postmortem next to the pprof
			// snapshots: the breaching objective's exemplar trace explained
			// across every device manager the registry knows about.
			if rule.Name != "SLOFastBurn" || *profileDir == "" {
				return
			}
			trace := exemplarTrace(sloEngine, st.Labels["slo"])
			if trace == 0 {
				rootLog.Warn("no exemplar trace for explain capture", "slo", st.Labels["slo"])
				return
			}
			bases := []string{"http://" + *listen}
			for _, d := range reg.Devices() {
				if d.MetricsURL != "" {
					bases = append(bases, strings.TrimSuffix(d.MetricsURL, "/metrics"))
				}
			}
			go func() {
				if path, err := flightrec.CaptureExplain(*profileDir, rule.Name, bases, trace); err != nil {
					rootLog.Warn("explain capture failed", "rule", rule.Name, "err", err)
				} else {
					rootLog.Info("explain captured", "rule", rule.Name, "file", path, "trace", trace)
				}
			}()
		},
	})
	engine.Add(alert.DefaultRules(db)...)
	engine.Add(sloEngine.Rules()...)
	engine.Add(alert.Rule{
		Name: "DeviceUnhealthy",
		Help: "device unreachable past the migration grace period",
		Source: alert.Func(func(now time.Time) []alert.Observation {
			var out []alert.Observation
			for _, id := range reg.UnhealthyPastGrace(*grace) {
				out = append(out, alert.Observation{Labels: metrics.Labels{"device": id}, Value: 1})
			}
			return out
		}),
		Op:        alert.OpGreater,
		Threshold: 0,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go scraper.Run(ctx)
	go engine.Run(ctx, *alertInterval)
	go runtimeCol.Run(ctx, *interval)

	// Keep scrape targets synced with registered devices.
	go func() {
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, d := range reg.Devices() {
					if d.MetricsURL == "" {
						continue
					}
					scraper.AddTarget(d.ID, d.MetricsURL)
					// Propagate scrape health: unreachable managers drop
					// out of allocation until they answer again.
					reg.SetDeviceHealth(d.ID, scraper.LastError(d.ID))
				}
			}
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	mux.Handle("/debug/flash", flashSvc.Handler())
	mux.Handle("/debug/flight", flightRec.Handler())
	mux.Handle("/debug/logs", rootLog.Handler())
	mux.Handle("/debug/alerts", engine.Handler())
	mux.Handle("/debug/slo", sloEngine.Handler())
	mux.Handle("/metrics", alertReg.Handler())
	obs.RegisterPprof(mux)
	srv := &http.Server{Addr: *listen, Handler: mux}
	go func() {
		rootLog.Info("serving", "addr", "http://"+*listen)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("registry: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	rootLog.Info("shutting down")
	shutCtx, cancelShut := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil {
		rootLog.Warn("shutdown cut short", "err", err)
	}
}

// shutdownGrace bounds how long SIGTERM waits for in-flight requests.
const shutdownGrace = 10 * time.Second

// exemplarTrace pulls the named objective's freshest latency exemplar:
// the concrete over-target request behind the burning quantile. An empty
// objective name matches any objective carrying an exemplar.
func exemplarTrace(eng *slo.Engine, objective string) obs.TraceID {
	for _, r := range eng.ReportAt(time.Now()) {
		if objective != "" && r.Name != objective {
			continue
		}
		if r.Latency.ExemplarTrace == "" {
			continue
		}
		if id, err := obs.ParseTraceID(r.Latency.ExemplarTrace); err == nil && id != 0 {
			return id
		}
	}
	return 0
}
