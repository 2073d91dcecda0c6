package rpc

import (
	"net"
	"sync/atomic"
)

// FaultConn wraps a net.Conn with write-path faults a test toggles:
// blackholed writes and a mid-frame close. Reads pass through untouched —
// a dropped response is modelled by dropping the peer's write.
type FaultConn struct {
	net.Conn

	dropWrites atomic.Bool
	closeNext  atomic.Bool

	// Dropped counts blackholed writes, for asserting the fault fired.
	Dropped atomic.Int64
}

// InjectFaults wraps conn in a transparent FaultConn; DropWrites and
// CloseMidFrame arm its faults.
func InjectFaults(conn net.Conn) *FaultConn {
	return &FaultConn{Conn: conn}
}

// DropWrites toggles unconditional write blackholing: writes report
// success but never reach the peer. The canonical wedged-client
// simulation — TCP stays open, heartbeats stop arriving.
func (fc *FaultConn) DropWrites(on bool) { fc.dropWrites.Store(on) }

// CloseMidFrame makes the next write send only a prefix of its buffer and
// then close the connection.
func (fc *FaultConn) CloseMidFrame() { fc.closeNext.Store(true) }

// Write implements net.Conn with the armed faults applied.
func (fc *FaultConn) Write(b []byte) (int, error) {
	if fc.closeNext.CompareAndSwap(true, false) {
		n := len(b) / 2
		if n > 0 {
			fc.Conn.Write(b[:n])
		}
		fc.Conn.Close()
		return n, net.ErrClosed
	}
	if fc.dropWrites.Load() {
		fc.Dropped.Add(1)
		return len(b), nil
	}
	return fc.Conn.Write(b)
}
