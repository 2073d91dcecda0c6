package logx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"blastfunction/internal/obs"
)

// Query selects a slice of a log ring: minimum level, exact component,
// one trace, and a tail limit. The zero Query selects everything.
type Query struct {
	// N keeps only the most recent N matching events (0 = all).
	N int
	// MinLevel drops events below this severity.
	MinLevel Level
	// Component, when non-empty, keeps only that component's events.
	Component string
	// Trace, when non-zero, keeps only events correlated to that trace.
	Trace obs.TraceID
}

// Values encodes the query as /debug/logs URL parameters.
func (q Query) Values() url.Values {
	v := url.Values{}
	if q.N > 0 {
		v.Set("n", strconv.Itoa(q.N))
	}
	if q.MinLevel > LevelDebug {
		v.Set("level", q.MinLevel.String())
	}
	if q.Component != "" {
		v.Set("component", q.Component)
	}
	if q.Trace != 0 {
		v.Set("trace", q.Trace.String())
	}
	return v
}

// match reports whether the event passes the level/component/trace
// filters (N is applied by obs.ServeTail / Filter afterwards).
func (q Query) match(ev Event) bool {
	if ev.Level < q.MinLevel {
		return false
	}
	if q.Component != "" && ev.Component != q.Component {
		return false
	}
	if q.Trace != 0 && ev.Trace != q.Trace {
		return false
	}
	return true
}

// Filter applies the query to a snapshot, returning the most recent N
// (or all) matching events, oldest first.
func (q Query) Filter(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if q.match(ev) {
			out = append(out, ev)
		}
	}
	if q.N > 0 && q.N < len(out) {
		out = out[len(out)-q.N:]
	}
	return out
}

// parseQuery decodes ?level= ?component= ?trace= (the ?n= tail limit is
// left for obs.ServeTail).
func parseQuery(r *http.Request) (Query, error) {
	var q Query
	vals := r.URL.Query()
	if s := vals.Get("level"); s != "" {
		lv, err := ParseLevel(s)
		if err != nil {
			return q, err
		}
		q.MinLevel = lv
	}
	q.Component = vals.Get("component")
	if s := vals.Get("trace"); s != "" {
		id, err := obs.ParseTraceID(s)
		if err != nil {
			return q, err
		}
		q.Trace = id
	}
	return q, nil
}

// Handler serves the ring at /debug/logs. Query parameters:
// ?level=<debug|info|warn|error> keeps that severity and above,
// ?component=<name> filters to one component, ?trace=<hex id> to one
// trace, and ?n=<count> (via obs.ServeTail) tails the result.
func (l *Logger) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, err := parseQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		obs.ServeTail(w, r, q.Filter(l.Tail()))
	})
}

// FetchRing retrieves base's /debug/logs ring filtered by q through c,
// whose timeout bounds the fetch. It is the client half of Handler,
// shared by `blastctl logs` and the end-to-end tests so both exercise the
// same merge path.
func FetchRing(c *http.Client, base string, q Query) ([]Event, error) {
	u := base + "/debug/logs"
	if vals := q.Values(); len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, body)
	}
	var events []Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		return nil, fmt.Errorf("GET %s: decoding: %w", u, err)
	}
	return events, nil
}

// Merge combines per-process rings into one timeline ordered by event
// time. Equal timestamps — common when coarse clocks or simulated time
// make whole bursts share one instant — tie-break on process name, then
// per-ring sequence, so the interleaving is deterministic regardless of
// the order rings were fetched in.
func Merge(rings ...[]Event) []Event {
	var out []Event
	for _, r := range rings {
		out = append(out, r...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	return out
}
