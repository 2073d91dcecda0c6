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

// ServeTail writes a ring snapshot (oldest first) with WriteJSON,
// honouring an optional ?n= limit — keep the n most recent entries.
// Serves the manager's /debug/tasks.
func ServeTail[T any](w http.ResponseWriter, r *http.Request, snapshot []T) {
	snapshot, ok := Tail(w, r, snapshot)
	if ok {
		WriteJSON(w, snapshot)
	}
}

// Tail applies a request's optional ?n= limit to a snapshot (oldest
// first), keeping the n most recent entries. n must be a non-negative
// decimal integer and nothing else; for any other value Tail answers 400
// and reports false. Every debug endpoint with ?n= parses it here.
func Tail[T any](w http.ResponseWriter, r *http.Request, snapshot []T) ([]T, bool) {
	if s := r.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad n parameter: want a non-negative integer", http.StatusBadRequest)
			return nil, false
		}
		if n < len(snapshot) {
			snapshot = snapshot[len(snapshot)-n:]
		}
	}
	return snapshot, true
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
