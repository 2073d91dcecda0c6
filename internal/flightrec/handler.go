package flightrec

import (
	"net/http"

	"blastfunction/internal/obs"
)

// Handler serves the flight ring at /debug/flight. Query parameters:
// ?trace=<hex id> returns just that flight's snapshot (consulting the
// durable ledger when the ring has already evicted it), ?n=<count> tails
// the flight list. A nil recorder serves an empty snapshot so binaries
// can mount the endpoint unconditionally.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if s := req.URL.Query().Get("trace"); s != "" {
			id, err := obs.ParseTraceID(s)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			snap := Snapshot{Process: r.Process()}
			if r != nil {
				r.mu.Lock()
				snap.Evicted = r.evicted
				snap.Spilled = r.spilled
				r.mu.Unlock()
			}
			if f, ok := r.FlightFor(id); ok {
				snap.Flights = []Flight{f}
			}
			obs.WriteJSON(w, snap)
			return
		}
		// obs.Tail's ?n= on the flight list, inside the snapshot envelope
		// (process stamp + counters).
		snap := r.Snapshot()
		var ok bool
		if snap.Flights, ok = obs.Tail(w, req, snap.Flights); ok {
			obs.WriteJSON(w, snap)
		}
	})
}
