package manager

import (
	"net/http"
	"time"

	"blastfunction/internal/obs"
	"blastfunction/internal/sched"
)

// SchedStats is the manager's scheduling snapshot: the queue's discipline
// and counters joined with the per-tenant device-time occupancy the queue
// itself cannot see.
type SchedStats struct {
	Discipline sched.Discipline  `json:"discipline"`
	Depth      int               `json:"depth"`
	Pushed     uint64            `json:"pushed"`
	Popped     uint64            `json:"popped"`
	Removed    uint64            `json:"removed"`
	Tenants    []SchedTenantView `json:"tenants"`
}

// SchedTenantView is one tenant's scheduling state.
type SchedTenantView struct {
	Tenant  string `json:"tenant"`
	Weight  int    `json:"weight"`
	Depth   int    `json:"depth"`
	Popped  uint64 `json:"popped"`
	Removed uint64 `json:"removed,omitempty"`
	// WaitTotal and MaxWait aggregate queue wait over the tenant's
	// executed tasks.
	WaitTotal time.Duration `json:"wait_total_ns"`
	MaxWait   time.Duration `json:"max_wait_ns"`
	// DeviceTime is the tenant's cumulative modelled board occupancy;
	// OccupancyShare is its fraction of the board total — the quantity the
	// fair disciplines equalize per unit weight.
	DeviceTime     time.Duration `json:"device_ns"`
	OccupancyShare float64       `json:"occupancy_share"`
}

// SchedStats snapshots the scheduling state for diagnostics.
func (m *Manager) SchedStats() SchedStats {
	qs := m.queue.Stats()
	out := SchedStats{
		Discipline: qs.Discipline,
		Depth:      qs.Depth,
		Pushed:     qs.Pushed,
		Popped:     qs.Popped,
		Removed:    qs.Removed,
	}
	m.tmu.Lock()
	device := make(map[string]time.Duration, len(m.tenants))
	var total time.Duration
	for name, tm := range m.tenants {
		d := time.Duration(tm.deviceNS.Load())
		device[name] = d
		total += d
	}
	m.tmu.Unlock()
	for _, ts := range qs.Tenants {
		v := SchedTenantView{
			Tenant:     ts.Tenant,
			Weight:     ts.Weight,
			Depth:      ts.Depth,
			Popped:     ts.Popped,
			Removed:    ts.Removed,
			WaitTotal:  ts.WaitTotal,
			MaxWait:    ts.MaxWait,
			DeviceTime: device[ts.Tenant],
		}
		if total > 0 {
			v.OccupancyShare = float64(v.DeviceTime) / float64(total)
		}
		out.Tenants = append(out.Tenants, v)
		delete(device, ts.Tenant)
	}
	return out
}

// SchedStatsHandler serves the scheduling snapshot as JSON, for
// blastctl-style per-tenant fairness inspection.
func (m *Manager) SchedStatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		obs.WriteJSON(w, m.SchedStats())
	})
}
