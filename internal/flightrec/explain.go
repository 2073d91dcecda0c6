package flightrec

// The postmortem engine: given a trace ID, pull every signal the stack
// produces — flight skeletons, trace-correlated logs,
// alert states, SLO burn reports, flash history — from every reachable
// process concurrently, merge them into one causal timeline, attribute
// the end-to-end latency to wait-breakdown stages (admission, queue,
// flash-wait, upload, execute, notify), and render a dominant-contributor
// verdict with the evidence lines that support it. `blastctl explain`
// is a thin wrapper around Explainer; SLO fast-burn pages call
// CaptureExplain from their OnFire hook so the report lands on disk next
// to the pprof snapshots while the incident is still live.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"blastfunction/internal/alert"
	"blastfunction/internal/flash"
	"blastfunction/internal/logx"
	"blastfunction/internal/obs"
	"blastfunction/internal/slo"
)

// Stage names in attribution order. "unattributed" is the remainder of
// the client-observed total no stage claims (wire transit, client-side
// serialization).
var stageOrder = []string{"admission", "queue", "flash-wait", "upload", "execute", "notify"}

// StageShare is one wait-breakdown row.
type StageShare struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
	// Frac is the stage's share of the client-observed total (0..1).
	Frac float64 `json:"frac"`
}

// Source records what one process contributed to the postmortem.
type Source struct {
	Base    string `json:"base"`
	Process string `json:"process,omitempty"`
	Flights int    `json:"flights"`
	Logs    int    `json:"logs"`
	// Partial says why the process's part of the timeline is incomplete:
	// its /debug/flight answered without a flight for the trace although
	// its ring has evicted flights (so the flight may be one of them, not
	// spilled to the ledger; a process that evicted none never held it),
	// or its flight dropped milestones past the per-flight cap.
	Partial string `json:"partial,omitempty"`
	// Err marks an unreachable process; the timeline is partial.
	Err string `json:"err,omitempty"`
}

// TimelineEntry is one merged causal-timeline line.
type TimelineEntry struct {
	Time    time.Time `json:"time"`
	Process string    `json:"process"`
	// Origin is the signal the entry came from: "flight" or "log".
	Origin string        `json:"origin"`
	Text   string        `json:"text"`
	Dur    time.Duration `json:"dur_ns,omitempty"`
	Seq    uint64        `json:"seq,omitempty"`
}

// Postmortem is the full cross-signal explanation of one trace.
type Postmortem struct {
	Trace    obs.TraceID     `json:"trace"`
	Sources  []Source        `json:"sources"`
	Timeline []TimelineEntry `json:"timeline"`
	// Total is the client-observed end-to-end latency (the longest
	// terminal flight milestone across processes).
	Total        time.Duration `json:"total_ns"`
	Stages       []StageShare  `json:"stages"`
	Unattributed time.Duration `json:"unattributed_ns"`
	// Verdict names the dominant latency contributor.
	Verdict  string   `json:"verdict"`
	Evidence []string `json:"evidence,omitempty"`
	// Alerts carries currently firing/pending alert states; Burning the
	// SLOs whose budget is actively burning.
	Alerts  []alert.Status `json:"alerts,omitempty"`
	Burning []string       `json:"burning,omitempty"`
	// FlashJobs is reconfiguration history correlated to the flight's
	// flash-join bitstreams.
	FlashJobs []flash.Job `json:"flash_jobs,omitempty"`
}

// Explainer fetches and correlates. Bases are process base URLs
// (http://host:port, no path); duplicates are tolerated.
type Explainer struct {
	Bases []string
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// procFlight is a flight tagged with the process that recorded it.
type procFlight struct {
	proc   string
	flight Flight
}

// baseResult accumulates one base's fetches.
type baseResult struct {
	src     Source
	flights []procFlight
	logs    []logx.Event
	alerts  []alert.Status
	reports []slo.Report
	flash   *flashDoc
}

// flashDoc mirrors the flash service's /debug/flash payload.
type flashDoc struct {
	Jobs    []flash.Job            `json:"jobs"`
	Queues  map[string]int         `json:"queue_depths"`
	History map[string][]flash.Job `json:"history"`
}

func (e *Explainer) client() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return http.DefaultClient
}

// getJSON fetches and decodes one endpoint; a non-200 or unreachable
// endpoint is a soft miss (not every process serves every signal).
func (e *Explainer) getJSON(u string, v any) (*http.Response, error) {
	resp, err := e.client().Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return resp, fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp, fmt.Errorf("GET %s: decoding: %w", u, err)
	}
	return resp, nil
}

// fetchBase pulls every signal one process exposes. Only a base where
// ALL endpoints fail is marked unreachable.
func (e *Explainer) fetchBase(base string, trace obs.TraceID) baseResult {
	res := baseResult{src: Source{Base: base}}
	hits := 0

	var snap Snapshot
	if _, err := e.getJSON(base+"/debug/flight?trace="+trace.String(), &snap); err == nil {
		hits++
		res.src.Process = snap.Process
		dropped := 0
		for _, f := range snap.Flights {
			res.flights = append(res.flights, procFlight{proc: snap.Process, flight: f})
			dropped += f.Dropped
		}
		res.src.Flights = len(snap.Flights)
		switch {
		case len(snap.Flights) == 0 && snap.Evicted > 0:
			res.src.Partial = fmt.Sprintf("holds no flight for the trace and has evicted %d", snap.Evicted)
		case dropped > 0:
			res.src.Partial = fmt.Sprintf("dropped %d milestones past the per-flight cap", dropped)
		}
	}
	if _, err := e.getJSON(base+"/debug/logs?trace="+trace.String(), &res.logs); err == nil {
		hits++
		res.src.Logs = len(res.logs)
	}
	if _, err := e.getJSON(base+"/debug/alerts", &res.alerts); err == nil {
		hits++
	}
	if _, err := e.getJSON(base+"/debug/slo", &res.reports); err == nil {
		hits++
	}
	var fd flashDoc
	if _, err := e.getJSON(base+"/debug/flash", &fd); err == nil {
		hits++
		res.flash = &fd
	}
	if hits == 0 {
		res.src.Err = "unreachable: no debug endpoint answered"
	}
	return res
}

// Explain builds the postmortem for one trace, querying all bases
// concurrently.
func (e *Explainer) Explain(trace obs.TraceID) (*Postmortem, error) {
	if trace == 0 {
		return nil, fmt.Errorf("explain: zero trace ID")
	}
	bases := dedupeBases(e.Bases)
	if len(bases) == 0 {
		return nil, fmt.Errorf("explain: no process base URLs")
	}
	results := make([]baseResult, len(bases))
	var wg sync.WaitGroup
	for i, b := range bases {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			results[i] = e.fetchBase(b, trace)
		}(i, b)
	}
	wg.Wait()

	pm := &Postmortem{Trace: trace}
	var flights []procFlight
	var logs []logx.Event
	var flashDocs []*flashDoc
	seenAlert := map[string]bool{}
	seenSLO := map[string]bool{}
	for _, res := range results {
		pm.Sources = append(pm.Sources, res.src)
		flights = append(flights, res.flights...)
		logs = append(logs, res.logs...)
		if res.flash != nil {
			flashDocs = append(flashDocs, res.flash)
		}
		for _, st := range res.alerts {
			if st.State != alert.StateFiring && st.State != alert.StatePending {
				continue
			}
			key := st.Rule + "|" + fmt.Sprint(st.Labels)
			if !seenAlert[key] {
				seenAlert[key] = true
				pm.Alerts = append(pm.Alerts, st)
			}
		}
		for _, rep := range res.reports {
			for _, sli := range []slo.SLIReport{rep.Latency, rep.Availability} {
				if !sli.HasData {
					continue
				}
				for _, b := range sli.Burns {
					if b.Breached && !seenSLO[rep.Name+"/"+sli.Kind] {
						seenSLO[rep.Name+"/"+sli.Kind] = true
						pm.Burning = append(pm.Burning, rep.Name+" ("+sli.Kind+")")
					}
				}
			}
		}
	}
	if len(flights) == 0 && len(logs) == 0 {
		return pm, fmt.Errorf("explain: no process holds signals for trace %s", trace)
	}

	pm.Timeline = buildTimeline(flights, logs)
	attribute(pm, flights)
	correlateFlash(pm, flights, flashDocs)
	return pm, nil
}

func dedupeBases(in []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, b := range in {
		b = strings.TrimRight(b, "/")
		if b != "" && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// buildTimeline merges flight events and log lines into one time-ordered
// causal timeline. Ties break on process name then sequence — the same
// determinism contract logx.Merge gives interleaved rings.
func buildTimeline(flights []procFlight, logs []logx.Event) []TimelineEntry {
	var tl []TimelineEntry
	for _, pf := range flights {
		for _, ev := range pf.flight.Events {
			text := string(ev.Kind)
			if ev.Detail != "" {
				text += " (" + ev.Detail + ")"
			}
			if ev.Kind == KindEnqueued && ev.Depth > 0 {
				text += fmt.Sprintf(" depth=%d pos=%d", ev.Depth, ev.Pos)
			}
			if ev.Count > 1 {
				text += fmt.Sprintf(" ×%d", ev.Count)
			}
			tl = append(tl, TimelineEntry{Time: ev.Time, Process: pf.proc, Origin: "flight", Text: text, Dur: ev.Dur, Seq: ev.Seq})
		}
	}
	for _, ev := range logs {
		proc := ev.Proc
		if proc == "" {
			proc = ev.Component
		}
		tl = append(tl, TimelineEntry{Time: ev.Time, Process: proc, Origin: "log", Text: "[" + ev.Level.String() + "] " + ev.Msg, Seq: ev.Seq})
	}
	sort.SliceStable(tl, func(i, j int) bool {
		a, b := tl[i], tl[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		return a.Seq < b.Seq
	})
	return tl
}

// attribute computes the wait breakdown. Flight events carry measured
// durations; each stage sums its kind across processes, with one
// asymmetry: a process that ran the execute loop reports its device
// write time separately (KindUpload), so its execute share is the loop
// minus its own uploads — keeping "upload" and "execute" disjoint.
func attribute(pm *Postmortem, flights []procFlight) {
	stage := map[string]time.Duration{}
	var evidence []string
	// Per-process upload sums for the execute subtraction.
	uploadBy := map[string]time.Duration{}
	execBy := map[string]time.Duration{}
	for _, pf := range flights {
		for _, ev := range pf.flight.Events {
			switch ev.Kind {
			case KindAdmitted:
				stage["admission"] += ev.Dur
			case KindScheduled:
				stage["queue"] += ev.Dur
				if ev.Dur > time.Millisecond {
					evidence = append(evidence, fmt.Sprintf("queue: waited %s before a worker popped the task (%s)", round(ev.Dur), ev.Detail))
				}
			case KindFlashWait:
				stage["flash-wait"] += ev.Dur
				evidence = append(evidence, fmt.Sprintf("flash: blocked %s for bitstream %s", round(ev.Dur), ev.Detail))
			case KindUpload:
				stage["upload"] += ev.Dur
				uploadBy[pf.proc] += ev.Dur
			case KindExecute:
				stage["execute"] += ev.Dur
				execBy[pf.proc] += ev.Dur
			case KindNotify:
				stage["notify"] += ev.Dur
			case KindEnqueued:
				if ev.Depth > 1 {
					evidence = append(evidence, fmt.Sprintf("queue: entered at position %d of %d queued tasks", ev.Pos, ev.Depth))
				}
			case KindBufferHit:
				evidence = append(evidence, withCount("data: buffer-cache hit skipped an upload", ev.Count))
			case KindFailure:
				evidence = append(evidence, "failure: "+ev.Detail)
			case KindRetry:
				evidence = append(evidence, withCount("retry: "+ev.Detail, ev.Count))
			case KindComplete:
				if ev.Dur > pm.Total {
					pm.Total = ev.Dur
				}
			}
		}
		if pf.flight.Notable != "" {
			evidence = append(evidence, fmt.Sprintf("%s flagged the flight notable: %s", pf.proc, pf.flight.Notable))
		}
	}
	// The execute loop wall-clocks its own device writes; keep the stages
	// disjoint by moving that share to "upload".
	for proc, up := range uploadBy {
		if ex := execBy[proc]; ex > 0 {
			if up > ex {
				up = ex
			}
			stage["execute"] -= up
		}
	}

	var attributed time.Duration
	for _, name := range stageOrder {
		d := stage[name]
		if d < 0 {
			d = 0
		}
		attributed += d
		share := StageShare{Name: name, Dur: d}
		if pm.Total > 0 {
			share.Frac = float64(d) / float64(pm.Total)
		}
		pm.Stages = append(pm.Stages, share)
	}
	if pm.Total > attributed {
		pm.Unattributed = pm.Total - attributed
	}

	dominant := StageShare{Name: "unattributed", Dur: pm.Unattributed}
	for _, s := range pm.Stages {
		if s.Dur > dominant.Dur {
			dominant = s
		}
	}
	if pm.Total <= 0 {
		pm.Verdict = "no terminal milestone recorded: the task never completed (or completion was not observed)"
	} else {
		pct := 100 * float64(dominant.Dur) / float64(pm.Total)
		pm.Verdict = fmt.Sprintf("%s dominated: %s of the %s client-observed latency (%.1f%%)",
			dominant.Name, round(dominant.Dur), round(pm.Total), pct)
	}
	pm.Evidence = evidence
}

// correlateFlash attaches reconfiguration jobs whose bitstream matches a
// flash-join milestone on the flight.
func correlateFlash(pm *Postmortem, flights []procFlight, docs []*flashDoc) {
	want := map[string]bool{}
	for _, pf := range flights {
		for _, ev := range pf.flight.Events {
			if ev.Kind == KindFlashJoin || ev.Kind == KindFlashWait {
				if ev.Detail != "" {
					want[ev.Detail] = true
				}
			}
		}
	}
	if len(want) == 0 {
		return
	}
	seen := map[uint64]bool{}
	for _, doc := range docs {
		for _, j := range doc.Jobs {
			if want[j.Bitstream] && !seen[j.ID] {
				seen[j.ID] = true
				pm.FlashJobs = append(pm.FlashJobs, j)
			}
		}
		for _, hist := range doc.History {
			for _, j := range hist {
				if want[j.Bitstream] && !seen[j.ID] {
					seen[j.ID] = true
					pm.FlashJobs = append(pm.FlashJobs, j)
				}
			}
		}
	}
	sort.Slice(pm.FlashJobs, func(i, j int) bool { return pm.FlashJobs[i].ID < pm.FlashJobs[j].ID })
}

// Render writes the human-readable postmortem report.
func (pm *Postmortem) Render(w io.Writer) {
	fmt.Fprintf(w, "postmortem: trace %s\n", pm.Trace)
	reachable := 0
	for _, s := range pm.Sources {
		if s.Err == "" {
			reachable++
		}
	}
	fmt.Fprintf(w, "sources: %d/%d processes answered\n", reachable, len(pm.Sources))
	for _, s := range pm.Sources {
		if s.Err != "" {
			fmt.Fprintf(w, "  %-28s %s\n", s.Base, s.Err)
			continue
		}
		name := s.Process
		if name == "" {
			name = s.Base
		}
		fmt.Fprintf(w, "  %-28s %d flight(s), %d log line(s)\n", name, s.Flights, s.Logs)
	}
	for _, s := range pm.Sources {
		if s.Partial != "" {
			fmt.Fprintf(w, "WARNING: %s %s, timeline partial\n", cmp.Or(s.Process, s.Base), s.Partial)
		}
	}

	if len(pm.Timeline) > 0 {
		fmt.Fprintf(w, "\ntimeline:\n")
		for _, e := range pm.Timeline {
			dur := ""
			if e.Dur > 0 {
				dur = " [" + round(e.Dur).String() + "]"
			}
			fmt.Fprintf(w, "  %s  %-22s %-6s %s%s\n",
				e.Time.Format("15:04:05.000000"), e.Process, e.Origin, e.Text, dur)
		}
	}

	fmt.Fprintf(w, "\nwait breakdown (total %s client-observed):\n", round(pm.Total))
	for _, s := range pm.Stages {
		fmt.Fprintf(w, "  %-12s %10s  %5.1f%%\n", s.Name, round(s.Dur), 100*s.Frac)
	}
	if pm.Total > 0 {
		fmt.Fprintf(w, "  %-12s %10s  %5.1f%%\n", "unattributed", round(pm.Unattributed),
			100*float64(pm.Unattributed)/float64(pm.Total))
	}
	fmt.Fprintf(w, "\nverdict: %s\n", pm.Verdict)
	if len(pm.Evidence) > 0 {
		fmt.Fprintf(w, "evidence:\n")
		for _, ev := range pm.Evidence {
			fmt.Fprintf(w, "  - %s\n", ev)
		}
	}
	for _, st := range pm.Alerts {
		fmt.Fprintf(w, "alert: %s %s %v since %s\n", st.Rule, st.State, st.Labels, st.Since.Format(time.RFC3339))
	}
	for _, name := range pm.Burning {
		fmt.Fprintf(w, "slo: %s is burning error budget\n", name)
	}
	for _, j := range pm.FlashJobs {
		fmt.Fprintf(w, "flash: job %d bitstream %s on %s: wait %.3fs flash %.3fs state %s\n",
			j.ID, j.Bitstream, j.Board, j.WaitSeconds, j.FlashSeconds, j.State)
	}
}

func withCount(s string, count int) string {
	if count > 1 {
		return fmt.Sprintf("%s ×%d", s, count)
	}
	return s
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

// CaptureExplain runs a postmortem and writes the rendered report into
// dir, next to the pprof snapshots obs.ProfileCapture leaves there —
// called from SLO fast-burn OnFire hooks with the burning SLI's exemplar
// trace. Returns the written path.
func CaptureExplain(dir, tag string, bases []string, trace obs.TraceID) (string, error) {
	if dir == "" {
		return "", nil
	}
	e := &Explainer{Bases: bases, Client: &http.Client{Timeout: 5 * time.Second}}
	pm, err := e.Explain(trace)
	if pm == nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stamp := time.Now().UTC().Format("20060102T150405.000")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.explain.txt", stamp, obs.SanitizeTag(tag)))
	var sb strings.Builder
	pm.Render(&sb)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
