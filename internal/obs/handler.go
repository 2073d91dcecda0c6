package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// RegisterPprof mounts net/http/pprof under /debug/pprof/ on an explicit
// mux (the package's init only touches http.DefaultServeMux, which no
// binary here serves).
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler serves the tracer's span ring as JSON at /debug/spans.
// Query parameters: ?trace=<hex id> filters to one trace, ?n=<count>
// keeps only the most recent n spans. Trace queries additionally carry
// an X-Spans-Evicted header when the ring has already overwritten part
// of that trace, so clients can warn that the timeline is partial.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := t.Spans()
		if s := r.URL.Query().Get("trace"); s != "" {
			id, err := ParseTraceID(s)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			kept := spans[:0]
			for _, sp := range spans {
				if sp.Trace == id {
					kept = append(kept, sp)
				}
			}
			spans = kept
			if n, exact := t.EvictedFor(id); n > 0 {
				w.Header().Set("X-Spans-Evicted", strconv.Itoa(n))
				if !exact {
					w.Header().Set("X-Spans-Evicted-Exact", "false")
				}
			}
		}
		ServeTail(w, r, spans)
	})
}

// ServeTail writes a ring snapshot (oldest first) with WriteJSON,
// honouring an optional ?n= limit — keep the n most recent entries.
// Shared by /debug/spans and the manager's /debug/tasks.
func ServeTail[T any](w http.ResponseWriter, r *http.Request, snapshot []T) {
	if s := r.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad n parameter: want a non-negative integer", http.StatusBadRequest)
			return
		}
		if n < len(snapshot) {
			snapshot = snapshot[len(snapshot)-n:]
		}
	}
	WriteJSON(w, snapshot)
}

// WriteJSON writes v as indented JSON, the form of every debug endpoint.
// It encodes into memory first: once body bytes are on the wire the status
// line is fixed, and a mid-stream encode error would leave the client with
// garbage under a 200 instead of an error status.
func WriteJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
