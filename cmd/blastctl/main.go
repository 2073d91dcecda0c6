// Command blastctl inspects a running BlastFunction deployment.
//
//	blastctl -registry http://localhost:8080 devices
//	blastctl -registry http://localhost:8080 functions
//	blastctl -manager http://localhost:5101 traces
//	blastctl -manager http://localhost:5101 tenants
//	blastctl -gateway http://localhost:8081 -manager http://localhost:5101 trace <trace-id>
//	blastctl explain <trace-id>
//	blastctl logs -level warn -trace <trace-id>
//	blastctl alerts
//	blastctl slo
//	blastctl top
//	blastctl flash list
//	blastctl flash status <board>
//	blastctl flash history <board> -n 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/flash"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/logx"
	"blastfunction/internal/obs"
	"blastfunction/internal/slo"
)

func main() {
	registryURL := flag.String("registry", "http://127.0.0.1:8080", "registry base URL")
	managerURL := flag.String("manager", "http://127.0.0.1:5101", "Device Manager HTTP base URL (for traces)")
	gatewayURL := flag.String("gateway", "http://127.0.0.1:8081", "gateway HTTP base URL (for trace)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout; a hung process can no longer wedge blastctl")
	flag.Parse()
	httpClient.Timeout = *timeout
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "devices"
	}
	// The ops commands merge views across every process that answers; a
	// single blastctl works against both the split (registry + managers)
	// and the all-in-one gateway deployments.
	bases := dedup(*registryURL, *gatewayURL, *managerURL)
	switch cmd {
	case "devices":
		showDevices(os.Stdout, *registryURL)
	case "functions":
		showFunctions(os.Stdout, *registryURL)
	case "traces":
		showTraces(os.Stdout, *managerURL)
	case "tenants":
		showTenants(os.Stdout, *managerURL)
	case "trace":
		id := flag.Arg(1)
		if id == "" {
			log.Fatal("blastctl: trace needs a trace id (hex; `blastctl slo` and `explain` print them)")
		}
		showTrace(os.Stdout, dedup(*gatewayURL, *managerURL), id)
	case "explain":
		showExplain(bases, flag.Args()[1:])
	case "logs":
		showLogs(bases, flag.Args()[1:])
	case "alerts":
		showAlerts(dedup(*registryURL, *gatewayURL))
	case "slo":
		showSLO(dedup(*registryURL, *gatewayURL), flag.Args()[1:])
	case "top":
		showTop(*registryURL, *gatewayURL, *managerURL, flag.Args()[1:])
	case "flash":
		showFlash(os.Stdout, bases, flag.Args()[1:])
	default:
		log.Fatalf("blastctl: unknown command %q (want devices|functions|traces|tenants|trace|explain|logs|alerts|slo|top|flash)", cmd)
	}
}

// dedup drops duplicate base URLs while preserving order, so pointing
// two flags at the same process doesn't fetch (or print) twice.
func dedup(bases ...string) []string {
	seen := make(map[string]bool, len(bases))
	var out []string
	for _, b := range bases {
		b = strings.TrimSuffix(b, "/")
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	return out
}

// showLogs fetches the /debug/logs rings of every reachable process and
// prints the merged timeline — the cluster-wide `kubectl logs` with
// level, component and trace filters pushed down to each ring.
func showLogs(bases []string, args []string) {
	fs := flag.NewFlagSet("logs", flag.ExitOnError)
	level := fs.String("level", "", "minimum severity (debug|info|warn|error)")
	component := fs.String("component", "", "only this component's events")
	trace := fs.String("trace", "", "only events correlated to this trace id (hex)")
	n := fs.Int("n", 0, "only the most recent N events per process (0 = all)")
	fs.Parse(args)

	var q logx.Query
	if *level != "" {
		lv, err := logx.ParseLevel(*level)
		if err != nil {
			log.Fatalf("blastctl: %v", err)
		}
		q.MinLevel = lv
	}
	q.Component = *component
	if *trace != "" {
		id, err := obs.ParseTraceID(*trace)
		if err != nil {
			log.Fatalf("blastctl: trace id %q: %v", *trace, err)
		}
		q.Trace = id
	}
	q.N = *n

	fetched := make([][]logx.Event, len(bases))
	errs := make([]error, len(bases))
	forEachBase(bases, func(i int, base string) {
		fetched[i], errs[i] = logx.FetchRing(httpClient, base, q)
	})
	var rings [][]logx.Event
	for i := range bases {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "blastctl: warning: %v (timeline may be partial)\n", errs[i])
			continue
		}
		rings = append(rings, fetched[i])
	}
	if len(rings) == 0 {
		log.Fatal("blastctl: no log source reachable (tried the registry's, gateway's and manager's /debug/logs)")
	}
	for _, ev := range logx.Merge(rings...) {
		fmt.Println(ev.Format())
	}
}

// showAlerts renders the merged /debug/alerts view: every rule series
// that has left inactive, firing first, with how long it has been there.
func showAlerts(bases []string) {
	parts := make([][]alert.Status, len(bases))
	errs := make([]error, len(bases))
	forEachBase(bases, func(i int, base string) {
		errs[i] = fetch(base+"/debug/alerts", &parts[i])
	})
	var statuses []alert.Status
	sources := 0
	for i := range bases {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "blastctl: warning: %v\n", errs[i])
			continue
		}
		sources++
		statuses = append(statuses, parts[i]...)
	}
	if sources == 0 {
		log.Fatal("blastctl: no alert source reachable (tried the registry's and gateway's /debug/alerts)")
	}
	if len(statuses) == 0 {
		fmt.Println("no alerts: every rule series is inactive")
		return
	}
	// SLO burn alerts carry a culprit: join /debug/slo so the firing line
	// ends in a trace id `blastctl trace` can decompose.
	exemplars := make(map[string]string)
	for _, st := range statuses {
		if strings.HasPrefix(st.Rule, "SLO") {
			reports, _ := sloReports(bases)
			for _, r := range reports {
				if r.Latency.ExemplarTrace != "" {
					exemplars[r.Name] = r.Latency.ExemplarTrace
				}
			}
			break
		}
	}
	now := time.Now()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "RULE\tSTATE\tLABELS\tVALUE\tCONDITION\tAGE\tEXEMPLAR")
	for _, st := range statuses {
		age := "-"
		if !st.Since.IsZero() {
			age = now.Sub(st.Since).Round(time.Second).String()
		}
		labels := st.Labels.String()
		if labels == "" {
			labels = "-"
		}
		exemplar := "-"
		if tr := exemplars[st.Labels["slo"]]; tr != "" {
			exemplar = tr
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.3g\t%s %g\t%s\t%s\n",
			st.Rule, st.State, labels, st.Value, st.Op, st.Threshold, age, exemplar)
	}
	w.Flush()
}

// sloReports fetches /debug/slo from every base concurrently and merges
// the answers, deduping by objective name (the registry and the gateway
// may be started with the same -slo flags). errs is aligned to bases so
// callers can decide between warning and ignoring.
func sloReports(bases []string) (reports []slo.Report, errs []error) {
	parts := make([][]slo.Report, len(bases))
	errs = make([]error, len(bases))
	forEachBase(bases, func(i int, base string) {
		errs[i] = fetch(base+"/debug/slo", &parts[i])
	})
	seen := make(map[string]bool)
	for _, part := range parts {
		for _, r := range part {
			if seen[r.Name] {
				continue
			}
			seen[r.Name] = true
			reports = append(reports, r)
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Name < reports[j].Name })
	return reports, errs
}

// sliState summarises one SLI's burn conditions: the severest breached
// window wins, an untouched budget reads ok.
func sliState(s slo.SLIReport) string {
	state := "ok"
	for _, bs := range s.Burns {
		if !bs.Breached {
			continue
		}
		if bs.Window.Severity == "page" {
			return "PAGE"
		}
		state = "WARN"
	}
	return state
}

// showSLO renders each declared objective's error-budget accounting:
// budget remaining per SLI, current burn rates, and — when the budget is
// burning — the exemplar trace id to feed straight into `blastctl trace`.
func showSLO(bases []string, args []string) {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	name := fs.String("name", "", "only this objective")
	fs.Parse(args)
	reports, errs := sloReports(bases)
	sources := 0
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "blastctl: warning: %v\n", err)
		} else {
			sources++
		}
	}
	if sources == 0 {
		log.Fatal("blastctl: no SLO source reachable (tried the registry's and gateway's /debug/slo)")
	}
	if *name != "" {
		kept := reports[:0]
		for _, r := range reports {
			if r.Name == *name {
				kept = append(kept, r)
			}
		}
		reports = kept
	}
	if len(reports) == 0 {
		fmt.Println("no objectives declared (start the registry or gateway with -slo name:p99<50ms:99.9%)")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SLO\tSPEC\tSLI\tWINDOW\tBUDGET_LEFT\tBURN\tSTATE\tEXEMPLAR")
	for _, r := range reports {
		for _, s := range []slo.SLIReport{r.Latency, r.Availability} {
			sli := s.Kind
			if s.Kind == "latency" && s.HasData {
				sli = fmt.Sprintf("latency (p%g=%.3gms)", s.Goal*100, s.ActualQuantile*1e3)
			}
			if !s.HasData {
				fmt.Fprintf(w, "%s\t%s\t%s\t%s\t-\t-\tno data\t-\n",
					r.Name, r.Spec, sli, r.Window)
				continue
			}
			// The worst burn across windows is the one the alert rules act on.
			burn := 0.0
			for _, bs := range s.Burns {
				if v := minf(bs.LongBurn, bs.ShortBurn); v > burn {
					burn = v
				}
			}
			exemplar := s.ExemplarTrace
			if exemplar == "" {
				exemplar = "-"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%5.1f%% %s\t%.2fx\t%s\t%s\n",
				r.Name, r.Spec, sli, r.Window,
				s.BudgetRemaining*100, utilBar(s.BudgetRemaining, 10),
				burn, sliState(s), exemplar)
		}
	}
	w.Flush()
	for _, r := range reports {
		if r.Latency.ExemplarTrace != "" && sliState(r.Latency) != "ok" {
			fmt.Printf("hint: `blastctl trace %s` decomposes a request behind %s's burning p%g\n",
				r.Latency.ExemplarTrace, r.Name, r.Latency.Goal*100)
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// topDevice mirrors the registry's /devices JSON for the fields top needs.
type topDevice struct {
	ID, Node, Bitstream string
	Healthy             bool
	Metrics             *struct {
		Utilization, Connected, QueueDepth float64
	}
	Connected []string
}

// topFront mirrors the gateway's /debug/gateway JSON for top.
type topFront struct {
	Router    string `json:"router"`
	Admission bool   `json:"admission"`
	Functions []struct {
		Function  string  `json:"function"`
		Requests  int64   `json:"requests"`
		Errors    int64   `json:"errors"`
		InFlight  int64   `json:"inflight"`
		Replicas  int     `json:"replicas"`
		Admitted  int64   `json:"admitted"`
		Rejected  int64   `json:"rejected"`
		AvgMillis float64 `json:"avg_ms"`
	} `json:"functions"`
	Tenants []struct {
		Tenant   string  `json:"tenant"`
		Rate     float64 `json:"rate"`
		Priority int     `json:"priority"`
		Admitted uint64  `json:"admitted"`
		Rejected uint64  `json:"rejected"`
	} `json:"tenants"`
}

// topSched mirrors the manager's /debug/sched JSON for top.
type topSched struct {
	Discipline string `json:"discipline"`
	Depth      int    `json:"depth"`
	Tenants    []struct {
		Tenant         string  `json:"tenant"`
		Weight         int     `json:"weight"`
		Depth          int     `json:"depth"`
		OccupancyShare float64 `json:"occupancy_share"`
	}
}

// topCache mirrors the manager's /debug/cache JSON for top.
type topCache struct {
	BufferCache struct {
		Entries       int    `json:"entries"`
		ResidentBytes int64  `json:"resident_bytes"`
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		BytesSaved    int64  `json:"bytes_saved"`
		Evictions     uint64 `json:"evictions"`
	} `json:"buffer_cache"`
	CopyOps   int64 `json:"copy_ops"`
	CopyBytes int64 `json:"copy_bytes"`
}

// showTop renders a one-screen live cluster view — devices with
// utilization bars, queue depth, firing alerts, and the manager's tenant
// shares — refreshed every -interval until interrupted. -once prints a
// single frame (scripting and tests).
func showTop(registryBase, gatewayBase, managerBase string, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one frame and exit")
	fs.Parse(args)
	for {
		frame := topFrame(dedup(registryBase, gatewayBase), dedup(registryBase, gatewayBase), gatewayBase, managerBase)
		if *once {
			fmt.Print(frame)
			return
		}
		// ANSI home+clear keeps the view flicker-free in place.
		fmt.Print("\033[H\033[2J" + frame)
		time.Sleep(*interval)
	}
}

// parallel runs every fn concurrently and waits for all of them.
func parallel(fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// topFrame builds one rendering of the cluster view. Every section is
// best-effort: an unreachable process leaves a note, not a dead screen.
// All sections are gathered concurrently before rendering, so a dead
// process costs the frame one -timeout, not one per section.
func topFrame(deviceBases, alertBases []string, gatewayBase, managerBase string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "BlastFunction cluster — %s\n\n", time.Now().Format("15:04:05"))

	var (
		devices  []topDevice
		devErr   error
		statuses []alert.Status
		alertsOK bool
		reports  []slo.Report
		sloOK    bool
		front    topFront
		frontErr error
		sched    topSched
		schedErr error
		cache    topCache
		cacheErr error
	)
	parallel(
		func() {
			for _, base := range deviceBases {
				if devErr = fetch(base+"/devices", &devices); devErr == nil {
					break
				}
			}
		},
		func() {
			parts := make([][]alert.Status, len(alertBases))
			errs := make([]error, len(alertBases))
			forEachBase(alertBases, func(i int, base string) {
				errs[i] = fetch(base+"/debug/alerts", &parts[i])
			})
			for i := range alertBases {
				if errs[i] == nil {
					alertsOK = true
					statuses = append(statuses, parts[i]...)
				}
			}
		},
		func() {
			var errs []error
			reports, errs = sloReports(alertBases)
			for _, err := range errs {
				if err == nil {
					sloOK = true
				}
			}
		},
		func() { frontErr = fetch(strings.TrimSuffix(gatewayBase, "/")+"/debug/gateway", &front) },
		func() { schedErr = fetch(strings.TrimSuffix(managerBase, "/")+"/debug/sched", &sched) },
		func() { cacheErr = fetch(strings.TrimSuffix(managerBase, "/")+"/debug/cache", &cache) },
	)

	if devErr != nil {
		fmt.Fprintf(&b, "devices: unreachable: %v\n", devErr)
	} else {
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "DEVICE\tNODE\tHEALTHY\tBITSTREAM\tUTIL\tQUEUE\tCLIENTS\tINSTANCES")
		for _, d := range devices {
			util, queue, clients := "-", "-", "-"
			bar := ""
			if d.Metrics != nil {
				util = fmt.Sprintf("%5.1f%%", d.Metrics.Utilization*100)
				queue = fmt.Sprintf("%.0f", d.Metrics.QueueDepth)
				clients = fmt.Sprintf("%.0f", d.Metrics.Connected)
				bar = " " + utilBar(d.Metrics.Utilization, 10)
			}
			bit := d.Bitstream
			if bit == "" {
				bit = "(unconfigured)"
			}
			fmt.Fprintf(w, "%s\t%s\t%t\t%s\t%s%s\t%s\t%s\t%d\n",
				d.ID, d.Node, d.Healthy, bit, util, bar, queue, clients, len(d.Connected))
		}
		w.Flush()
	}

	firing := 0
	for _, st := range statuses {
		if st.State == alert.StateFiring {
			firing++
		}
	}
	b.WriteByte('\n')
	switch {
	case !alertsOK:
		b.WriteString("alerts: unreachable\n")
	case firing == 0:
		b.WriteString("alerts: none firing\n")
	default:
		fmt.Fprintf(&b, "alerts: %d firing\n", firing)
		now := time.Now()
		for _, st := range statuses {
			if st.State != alert.StateFiring {
				continue
			}
			fmt.Fprintf(&b, "  %s %s value=%.3g (%s %g) for %s\n",
				st.Rule, st.Labels.String(), st.Value, st.Op, st.Threshold,
				now.Sub(st.Since).Round(time.Second))
		}
	}

	b.WriteByte('\n')
	switch {
	case !sloOK:
		b.WriteString("slo: unreachable\n")
	case len(reports) == 0:
		b.WriteString("slo: no objectives declared\n")
	default:
		burning := 0
		for _, r := range reports {
			if sliState(r.Latency) != "ok" || sliState(r.Availability) != "ok" {
				burning++
			}
		}
		if burning == 0 {
			fmt.Fprintf(&b, "slo: %d objectives, budgets healthy\n", len(reports))
		} else {
			fmt.Fprintf(&b, "slo: %d of %d objectives burning\n", burning, len(reports))
			for _, r := range reports {
				for _, s := range []slo.SLIReport{r.Latency, r.Availability} {
					if st := sliState(s); st != "ok" {
						line := fmt.Sprintf("  %s %s %s: budget %.1f%% left", r.Name, s.Kind, st, s.BudgetRemaining*100)
						if s.ExemplarTrace != "" {
							line += " exemplar " + s.ExemplarTrace
						}
						b.WriteString(line + "\n")
					}
				}
			}
		}
	}

	b.WriteByte('\n')
	if frontErr != nil {
		fmt.Fprintf(&b, "front door: unreachable\n")
	} else {
		admission := "admission off"
		if front.Admission {
			admission = "admission on"
		}
		fmt.Fprintf(&b, "front door: router %s, %s\n", front.Router, admission)
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  FUNCTION\tREPLICAS\tREQS\tERRS\tINFLIGHT\tADMITTED\tREJECTED\tAVG")
		for _, f := range front.Functions {
			fmt.Fprintf(w, "  %s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1fms\n",
				f.Function, f.Replicas, f.Requests, f.Errors, f.InFlight,
				f.Admitted, f.Rejected, f.AvgMillis)
		}
		w.Flush()
		throttled := 0
		for _, tn := range front.Tenants {
			if tn.Rejected > 0 {
				throttled++
			}
		}
		if throttled > 0 {
			fmt.Fprintf(&b, "  throttled tenants (%d):\n", throttled)
			for _, tn := range front.Tenants {
				if tn.Rejected == 0 {
					continue
				}
				fmt.Fprintf(&b, "    %s rate=%.1f/s prio=%d admitted=%d rejected=%d\n",
					tn.Tenant, tn.Rate, tn.Priority, tn.Admitted, tn.Rejected)
			}
		}
	}

	b.WriteByte('\n')
	if schedErr != nil {
		fmt.Fprintf(&b, "scheduler: unreachable (-manager not pointed at a Device Manager?)\n")
	} else {
		fmt.Fprintf(&b, "scheduler: %s, %d queued\n", sched.Discipline, sched.Depth)
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  TENANT\tWEIGHT\tQUEUED\tSHARE")
		for _, ts := range sched.Tenants {
			fmt.Fprintf(w, "  %s\t%d\t%d\t%.1f%% %s\n",
				ts.Tenant, ts.Weight, ts.Depth, ts.OccupancyShare*100, utilBar(ts.OccupancyShare, 10))
		}
		w.Flush()
	}

	b.WriteByte('\n')
	if cacheErr != nil {
		fmt.Fprintf(&b, "data-plane reuse: unreachable\n")
	} else {
		bc := cache.BufferCache
		fmt.Fprintf(&b, "data-plane reuse: buffer cache %d entries / %s resident, %d hits / %d misses, %s upload saved, %d evicted\n",
			bc.Entries, fmtBytes(bc.ResidentBytes), bc.Hits, bc.Misses, fmtBytes(bc.BytesSaved), bc.Evictions)
		fmt.Fprintf(&b, "  device copies: %d ops / %s chained without a client hop\n",
			cache.CopyOps, fmtBytes(cache.CopyBytes))
	}
	return b.String()
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// utilBar renders a fraction as a fixed-width block bar.
func utilBar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("|", full) + strings.Repeat(" ", width-full) + "]"
}

// showTrace fetches one trace's flights from each base's
// /debug/flight?trace= (the gateway serves the Remote Library's, a manager
// its own) and renders their milestones on one timeline: the latency
// decomposition of a single accelerated call across the library and the
// Device Manager. A milestone starts Dur before its Time.
func showTrace(out io.Writer, bases []string, id string) {
	trace, err := obs.ParseTraceID(id)
	if err != nil {
		log.Fatalf("blastctl: %v (want the hex form blastctl prints)", err)
	}
	snaps := make([]flightrec.Snapshot, len(bases))
	errs := make([]error, len(bases))
	forEachBase(bases, func(i int, base string) {
		errs[i] = fetch(base+"/debug/flight?trace="+trace.String(), &snaps[i])
	})
	type row struct {
		proc string
		ev   flightrec.Event
	}
	var rows []row
	sources := 0
	for i, snap := range snaps {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "blastctl: warning: %v (timeline may be partial)\n", errs[i])
			continue
		}
		sources++
		if len(snap.Flights) == 0 && snap.Evicted > 0 {
			fmt.Fprintf(os.Stderr, "blastctl: warning: %s holds no flight for the trace and has evicted %d, timeline partial\n", snap.Process, snap.Evicted)
		}
		for _, f := range snap.Flights {
			if f.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "blastctl: warning: %s dropped %d milestones, timeline partial\n", snap.Process, f.Dropped)
			}
			for _, ev := range f.Events {
				rows = append(rows, row{snap.Process, ev})
			}
		}
	}
	if sources == 0 {
		log.Fatal("blastctl: no flight source reachable (tried the gateway's and the manager's /debug/flight)")
	}
	if len(rows) == 0 {
		log.Fatalf("blastctl: no flight recorded for trace %s (sampling on, and recent enough for the flight rings?)", id)
	}
	start := func(ev flightrec.Event) time.Time { return ev.Time.Add(-ev.Dur) }
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if sa, sb := start(a.ev), start(b.ev); !sa.Equal(sb) {
			return sa.Before(sb)
		}
		if a.proc != b.proc {
			return a.proc < b.proc
		}
		return a.ev.Seq < b.ev.Seq
	})
	t0 := start(rows[0].ev)
	t1 := t0
	for _, r := range rows {
		if r.ev.Time.After(t1) {
			t1 = r.ev.Time
		}
	}
	total := t1.Sub(t0)
	if total <= 0 {
		total = time.Nanosecond
	}
	fmt.Fprintf(out, "trace %s: %d milestones from %d processes, %.3f ms end to end\n", trace, len(rows), sources, float64(total)/1e6)
	const width = 40
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PROCESS\tMILESTONE\tDETAIL\tSTART_MS\tDUR_MS\tTIMELINE")
	for _, r := range rows {
		off := start(r.ev).Sub(t0)
		lead := min(int(float64(off)/float64(total)*width), width-1)
		bar := min(max(int(float64(r.ev.Dur)/float64(total)*width), 1), width-lead)
		line := strings.Repeat(".", lead) + strings.Repeat("#", bar) + strings.Repeat(".", width-lead-bar)
		detail := r.ev.Detail
		if r.ev.Count > 1 {
			detail += fmt.Sprintf(" x%d", r.ev.Count)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.3f\t%.3f\t%s\n",
			r.proc, r.ev.Kind, detail, float64(off)/1e6, float64(r.ev.Dur)/1e6, line)
	}
	w.Flush()
}

// showExplain runs the cross-signal postmortem engine: it fetches flight
// events, log rings, alerts, SLO reports and flash state from
// every reachable process, merges one causal timeline, and renders the
// wait breakdown with a dominant-contributor verdict.
func showExplain(bases []string, args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the raw postmortem as JSON")
	fs.Parse(args)
	id := fs.Arg(0)
	if id == "" {
		log.Fatal("blastctl: explain needs a trace id (hex; `blastctl slo` prints them)")
	}
	trace, err := obs.ParseTraceID(id)
	if err != nil {
		log.Fatalf("blastctl: trace id %q: %v", id, err)
	}
	ex := &flightrec.Explainer{Bases: bases, Client: httpClient}
	pm, err := ex.Explain(trace)
	if err != nil {
		log.Fatalf("blastctl: %v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(pm)
		return
	}
	pm.Render(os.Stdout)
}

// showTenants joins the manager's scheduling snapshot with its trace ring
// into a per-tenant fairness view: occupancy share, queue depth, and p95
// queue wait over the recently executed tasks.
func showTenants(out io.Writer, base string) {
	var stats struct {
		Discipline string `json:"discipline"`
		Depth      int    `json:"depth"`
		Tenants    []struct {
			Tenant         string  `json:"tenant"`
			Weight         int     `json:"weight"`
			Depth          int     `json:"depth"`
			Popped         uint64  `json:"popped"`
			MaxWaitNanos   int64   `json:"max_wait_ns"`
			DeviceNanos    int64   `json:"device_ns"`
			OccupancyShare float64 `json:"occupancy_share"`
		}
	}
	mustFetch(base+"/debug/sched", &stats)
	var traces []struct {
		Client         string `json:"client"`
		QueueWaitNanos int64  `json:"queue_wait_ns"`
	}
	mustFetch(base+"/debug/tasks", &traces)
	// p95 queue wait per tenant over the trace ring's window.
	waits := make(map[string][]int64)
	for _, tr := range traces {
		waits[tr.Client] = append(waits[tr.Client], tr.QueueWaitNanos)
	}
	p95 := func(v []int64) float64 {
		if len(v) == 0 {
			return 0
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return float64(v[(len(v)-1)*95/100]) / 1e6
	}
	fmt.Fprintf(out, "discipline: %s, queued: %d\n", stats.Discipline, stats.Depth)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TENANT\tWEIGHT\tQUEUED\tTASKS\tSHARE\tP95_WAIT_MS\tMAX_WAIT_MS\tDEVICE_MS")
	for _, ts := range stats.Tenants {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f%%\t%.3f\t%.3f\t%.3f\n",
			ts.Tenant, ts.Weight, ts.Depth, ts.Popped, ts.OccupancyShare*100,
			p95(waits[ts.Tenant]), float64(ts.MaxWaitNanos)/1e6, float64(ts.DeviceNanos)/1e6)
	}
	w.Flush()
}

func showTraces(out io.Writer, base string) {
	var traces []struct {
		Seq         uint64 `json:"seq"`
		Client      string `json:"client"`
		Ops         int    `json:"ops"`
		DeviceNanos int64  `json:"device_ns"`
		Failed      bool   `json:"failed"`
		CompletedAt string `json:"completed_at"`
	}
	mustFetch(base+"/debug/tasks", &traces)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SEQ\tCLIENT\tOPS\tDEVICE_MS\tSTATUS\tCOMPLETED")
	for _, tr := range traces {
		status := "ok"
		if tr.Failed {
			status = "FAILED"
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%.3f\t%s\t%s\n",
			tr.Seq, tr.Client, tr.Ops, float64(tr.DeviceNanos)/1e6, status, tr.CompletedAt)
	}
	w.Flush()
}

// httpClient is the shared client behind every fetch; main overwrites
// its Timeout from -timeout so one hung process fails the request
// instead of wedging the whole command.
var httpClient = &http.Client{Timeout: 5 * time.Second}

// fetch GETs url and decodes the JSON response into v. Connection
// failures, non-200 answers and malformed bodies are all errors — the
// response is never decoded blindly.
func fetch(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return fmt.Errorf("fetching %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s answered %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %v", url, err)
	}
	return nil
}

// mustFetch is fetch for the single-source commands: any failure is
// fatal with a non-zero exit.
func mustFetch(url string, v any) {
	if err := fetch(url, v); err != nil {
		log.Fatalf("blastctl: %v", err)
	}
}

// forEachBase runs fn for every base concurrently and waits. The ops
// commands hit several processes per invocation; with -timeout bounding
// each request, the slowest (or deadest) target costs one timeout
// total instead of one per process.
func forEachBase(bases []string, fn func(i int, base string)) {
	var wg sync.WaitGroup
	for i, base := range bases {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			fn(i, base)
		}(i, base)
	}
	wg.Wait()
}

func showDevices(out io.Writer, base string) {
	var devices []struct {
		ID, Node, ManagerAddr, Bitstream, Accelerator string
		Healthy                                       bool
		Metrics                                       *struct {
			Utilization, Connected, QueueDepth float64
		}
		Connected []string
	}
	mustFetch(base+"/devices", &devices)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "DEVICE\tNODE\tHEALTHY\tMANAGER\tBITSTREAM\tUTIL\tCLIENTS\tINSTANCES")
	for _, d := range devices {
		util, clients := "-", "-"
		if d.Metrics != nil {
			util = fmt.Sprintf("%.1f%%", d.Metrics.Utilization*100)
			clients = fmt.Sprintf("%.0f", d.Metrics.Connected)
		}
		bit := d.Bitstream
		if bit == "" {
			bit = "(unconfigured)"
		}
		fmt.Fprintf(w, "%s\t%s\t%t\t%s\t%s\t%s\t%s\t%d\n",
			d.ID, d.Node, d.Healthy, d.ManagerAddr, bit, util, clients, len(d.Connected))
	}
	w.Flush()
}

func showFunctions(out io.Writer, base string) {
	var functions []struct {
		Name      string
		Bitstream string
		Query     struct{ Vendor, Platform, Accelerator string }
	}
	mustFetch(base+"/functions", &functions)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "FUNCTION\tACCELERATOR\tBITSTREAM\tVENDOR")
	for _, f := range functions {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", f.Name, f.Query.Accelerator, f.Bitstream, f.Query.Vendor)
	}
	w.Flush()
}

// showFlash inspects the bitstream lifecycle service of every reachable
// process (Device Managers flash locally; the registry/gateway plans
// windows). Subcommands: "list" (live jobs + queue depths), "status"
// (one board's pipeline), "history" (the durable reflash ledger).
func showFlash(out io.Writer, bases []string, args []string) {
	sub := "list"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub = args[0]
		args = args[1:]
	}
	fs := flag.NewFlagSet("flash", flag.ExitOnError)
	board := fs.String("board", "", "only this board")
	n := fs.Int("n", 0, "history entries per board (0 = all kept)")
	fs.Parse(args)
	if *board == "" && fs.NArg() > 0 {
		*board = fs.Arg(0)
	}
	if sub != "list" && sub != "status" && sub != "history" {
		log.Fatalf("blastctl: unknown flash subcommand %q (want list|status|history)", sub)
	}

	type payload struct {
		Jobs    []flash.Job            `json:"jobs"`
		Queues  map[string]int         `json:"queue_depths"`
		History map[string][]flash.Job `json:"history"`
	}
	merged := payload{Queues: make(map[string]int), History: make(map[string][]flash.Job)}
	reachable := 0
	for _, base := range bases {
		url := base + "/debug/flash"
		sep := "?"
		if *board != "" {
			url += sep + "board=" + *board
			sep = "&"
		}
		if *n > 0 {
			url += sep + "limit=" + strconv.Itoa(*n)
		}
		var p payload
		if err := fetch(url, &p); err != nil {
			continue
		}
		reachable++
		merged.Jobs = append(merged.Jobs, p.Jobs...)
		for b, d := range p.Queues {
			merged.Queues[b] += d
		}
		for b, h := range p.History {
			merged.History[b] = append(merged.History[b], h...)
		}
	}
	if reachable == 0 {
		log.Fatalf("blastctl: no /debug/flash endpoint reachable (tried %s)", strings.Join(bases, ", "))
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	defer w.Flush()
	printJob := func(j flash.Job) {
		riders := ""
		if len(j.BatchedRequesters) > 0 {
			riders = fmt.Sprintf("+%d", len(j.BatchedRequesters))
		}
		detail := ""
		switch j.State {
		case flash.StateDone:
			detail = fmt.Sprintf("wait=%.2fs flash=%.2fs", j.WaitSeconds, j.FlashSeconds)
			if j.DrainedSessions > 0 {
				detail += fmt.Sprintf(" drained=%d", j.DrainedSessions)
			}
		case flash.StateFailed:
			detail = j.Error
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s%s\t%s\t%s\n",
			j.ID, j.Board, j.Bitstream, j.State, j.Requester, riders,
			j.Queued.Format(time.TimeOnly), detail)
	}

	switch sub {
	case "list":
		fmt.Fprintln(w, "ID\tBOARD\tBITSTREAM\tSTATE\tREQUESTER\tQUEUED\t")
		sort.Slice(merged.Jobs, func(i, j int) bool { return merged.Jobs[i].ID < merged.Jobs[j].ID })
		for _, j := range merged.Jobs {
			printJob(j)
		}
		if len(merged.Jobs) == 0 {
			fmt.Fprintln(w, "(no live flash jobs)\t")
		}
	case "status":
		boards := make([]string, 0, len(merged.Queues))
		for b := range merged.Queues {
			boards = append(boards, b)
		}
		sort.Strings(boards)
		fmt.Fprintln(w, "BOARD\tDEPTH\tACTIVE\t")
		for _, b := range boards {
			active := "-"
			for _, j := range merged.Jobs {
				if j.Board == b && j.State == flash.StateFlashing {
					active = fmt.Sprintf("#%d %s (%s)", j.ID, j.Bitstream, j.Requester)
				}
			}
			fmt.Fprintf(w, "%s\t%d\t%s\n", b, merged.Queues[b], active)
		}
		if len(boards) == 0 {
			fmt.Fprintln(w, "(no boards with flash activity)\t")
		}
	case "history":
		var all []flash.Job
		for _, h := range merged.History {
			all = append(all, h...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Board != all[j].Board {
				return all[i].Board < all[j].Board
			}
			return all[i].ID < all[j].ID
		})
		fmt.Fprintln(w, "ID\tBOARD\tBITSTREAM\tOUTCOME\tREQUESTER\tQUEUED\tDETAIL\t")
		for _, j := range all {
			printJob(j)
		}
		if len(all) == 0 {
			fmt.Fprintln(w, "(no flash history)\t")
		}
	}
}
