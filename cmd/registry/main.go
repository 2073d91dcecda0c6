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
	"flag"
	"time"

	"blastfunction/internal/opsplane"
)

func main() {
	var (
		base opsplane.Flags
		mon  opsplane.MonitorConfig
	)
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	flag.DurationVar(&mon.Window, "window", 30*time.Second, "utilization rate window")
	flag.DurationVar(&mon.Grace, "grace", 30*time.Second, "unhealthy grace before the DeviceUnhealthy alert fires")
	flag.StringVar(&mon.FlashHistory, "flash-history", "", "append-only JSONL file persisting the flash-window history across restarts")
	base.Register(flag.CommandLine)
	mon.Register(flag.CommandLine)
	flag.Parse()

	p := opsplane.New("registry", "registry", base)
	p.Listen(*listen)
	m, err := opsplane.NewMonitor(p, mon)
	if err != nil {
		p.Fatal(err)
	}
	defer m.Close()
	p.Mux.Handle("/", m.Registry.Handler())
	m.Start()
	p.Run()
}
