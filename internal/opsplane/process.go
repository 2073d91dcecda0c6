// Package opsplane is the operations plane every BlastFunction binary
// shares, wired once: the structured logger, one debug mux, the runtime
// collector and the serve loop that drains on SIGTERM (Process), plus the
// Accelerators Registry's monitoring stack that the registry and the
// gateway both run (Monitor). Each binary keeps only its own flags, the
// objects it serves and the routes it alone mounts.
package opsplane

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
	"blastfunction/internal/obs"
)

// ShutdownGrace bounds how long a stopping process waits for in-flight
// requests.
const ShutdownGrace = 10 * time.Second

// readHeaderTimeout bounds the work a client can make the server do
// before any handler runs: one that trickles its request headers is cut
// off instead of pinning a connection and a goroutine forever. A
// variable only so a test can shorten it.
var readHeaderTimeout = 10 * time.Second

// Flags are the flags every binary shares.
type Flags struct {
	LogLevel string
	LogRing  int
}

// Register binds the flags to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum level mirrored to stderr (debug|info|warn|error)")
	fs.IntVar(&f.LogRing, "log-ring", 4096, "events kept in the /debug/logs ring")
}

// Process is one binary's ops-plane base: its root logger, the HTTP mux
// that already serves /debug/logs and /debug/pprof/, and the context its
// background loops run under until Run returns.
type Process struct {
	Log *logx.Logger
	Mux *http.ServeMux

	name   string // binary name, the prefix of fatal messages
	addr   string // HTTP address given to Listen
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
}

// New builds the base of the binary called name from its parsed flags;
// component names its log events. A malformed -log-level is fatal.
func New(name, component string, f Flags) *Process {
	level, err := logx.ParseLevel(f.LogLevel)
	if err != nil {
		log.Fatalf("%s: -log-level: %v", name, err)
	}
	p := &Process{
		Log: logx.New(logx.Config{
			Component: component,
			RingSize:  f.LogRing,
			Sink:      logx.TextSink(os.Stderr),
			SinkLevel: level,
		}),
		Mux:  http.NewServeMux(),
		name: name,
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.Mux.Handle("/debug/logs", p.Log.Handler())
	obs.RegisterPprof(p.Mux)
	return p
}

// Context is cancelled when Run returns; background loops stop with it.
func (p *Process) Context() context.Context { return p.ctx }

// Fatal logs err under the binary's name and exits 1.
func (p *Process) Fatal(err error) { log.Fatalf("%s: %v", p.name, err) }

// CollectRuntime samples the process's runtime health into reg every
// interval, so a scrape of reg carries the bf_runtime_* series the
// GoroutineLeak and HeapGrowth rules watch.
func (p *Process) CollectRuntime(reg *metrics.Registry, labels metrics.Labels, interval time.Duration) {
	go obs.NewRuntimeCollector(reg, labels).Run(p.ctx, interval)
}

// Listen binds the HTTP address now, so a bad address fails at start-up
// and the port accepts before Run (a device manager registers itself in
// between). A bind failure is fatal.
func (p *Process) Listen(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		p.Fatal(err)
	}
	p.addr, p.ln = addr, ln
	p.Log.Info("serving", "addr", "http://"+addr)
}

// Run serves the mux on the Listen address until SIGINT or SIGTERM,
// drains in-flight requests for up to ShutdownGrace, then stops the
// background loops.
func (p *Process) Run() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: p.Mux, ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(p.ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		p.Log.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
		defer cancel()
		err = srv.Shutdown(shutCtx)
	}
	p.cancel()
	if errors.Is(err, context.DeadlineExceeded) {
		p.Log.Warn("shutdown cut short", "err", err)
	} else if err != nil {
		p.Fatal(err)
	}
}
