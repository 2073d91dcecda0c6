package registry

import (
	"encoding/json"
	"fmt"
	"net/http"

	"blastfunction/internal/obs"
)

// apiDevice is the JSON view of a device record plus live metrics.
type apiDevice struct {
	Device
	Healthy   bool
	Metrics   *DeviceMetrics `json:"Metrics,omitempty"`
	Connected []string       `json:"Connected,omitempty"`
}

// Handler serves the Registry's inspection and registration API:
//
//	GET  /devices    device records with live metrics and placements
//	POST /devices    register a device (JSON Device)
//	GET  /functions  function records
//	POST /functions  register a function (JSON Function)
//	GET  /healthz    liveness
//
// Device Managers self-register through POST /devices on startup, as the
// paper's managers announce themselves to the Registry.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/devices", func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			out := make([]apiDevice, 0)
			for _, d := range r.Devices() {
				ad := apiDevice{Device: d, Healthy: r.DeviceHealthy(d.ID), Connected: r.ConnectedInstances(d.ID)}
				if r.source.Metrics != nil {
					if m, ok := r.source.Metrics.DeviceMetrics(d.ID, d.Node); ok {
						ad.Metrics = &m
					}
				}
				out = append(out, ad)
			}
			obs.WriteJSON(w, out)
		case http.MethodPost:
			var d Device
			if err := json.NewDecoder(req.Body).Decode(&d); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := r.RegisterDevice(d); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusCreated)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/functions", func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			obs.WriteJSON(w, r.Functions())
		case http.MethodPost:
			var f Function
			if err := json.NewDecoder(req.Body).Decode(&f); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := r.RegisterFunction(f); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusCreated)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}
