package manager

import "time"

// SweepLeases exposes lease sweeping so integration tests can force a
// session expiry at a chosen instant instead of waiting out real leases.
func (m *Manager) SweepLeases(now time.Time) { m.sweepLeases(now) }

// ExpireClient expires the named client's session alone, as the lease
// sweeper does: the tasks it has waiting in the central queue fail there.
func (m *Manager) ExpireClient(name string) {
	s := m.sessionNamed(name)
	m.mu.Lock()
	delete(m.sessions, s.id)
	m.mu.Unlock()
	m.expireSession(s)
}

// MarkExpired sets the named client's expiry flag and nothing else: the
// sweeper's state between flagging a session and pulling its tasks from
// the queue, in which the worker may pop one of them.
func (m *Manager) MarkExpired(name string) { m.sessionNamed(name).expired.Store(true) }

func (m *Manager) sessionNamed(name string) *session {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.sessions {
		if s.clientName == name {
			return s
		}
	}
	panic("no session of client " + name)
}
