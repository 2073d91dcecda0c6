package manager

import (
	"net/http"

	"blastfunction/internal/datacache"
	"blastfunction/internal/flightrec"
	"blastfunction/internal/obs"
	"blastfunction/internal/ocl"
	"blastfunction/internal/wire"
)

// This file is the manager side of the data-plane reuse layer: the
// content-addressed device buffer cache behind CreateBuffer and the
// /debug/cache stats view.

// createCachedBuffer serves a CreateBuffer carrying a content hash.
// Protocol:
//
//   - probe (hash, no payload): a resident entry with the same (hash,
//     size) yields a shared handle — the metadata-only RPC that makes
//     repeated inputs upload once per board. A miss answers ID 0 (session
//     handles start at 1) and the client re-sends with the payload.
//   - upload (hash + payload): the manager re-hashes the payload before
//     inserting, so a client cannot poison the shared cache with a false
//     hash claim and read another tenant's bytes back through it.
//
// Only full-size MemReadOnly payloads are cacheable: contents must be
// completely determined by (hash, size), and no one may write the shared
// bytes afterwards.
func (s *session) createCachedBuffer(m *Manager, req *wire.CreateBufferRequest) ([]byte, error) {
	if ocl.MemFlags(req.Flags) != ocl.MemReadOnly {
		return nil, ocl.Errf(ocl.ErrInvalidValue,
			"content hash on non-read-only buffer (flags %#x)", req.Flags)
	}
	key := datacache.BufferKey{Hash: req.ContentHash, Size: req.Size}
	if boardID, ok := m.bufcache.Acquire(key); ok {
		m.mBufHits.Inc()
		m.mBufSaved.Add(float64(req.Size))
		m.flight.Record(s.flight, flightrec.Event{Kind: flightrec.KindBufferHit})
		id := s.insertBuffer(bufferInfo{
			boardID: boardID, size: req.Size, flags: ocl.MemFlags(req.Flags),
			hash: req.ContentHash, shared: true,
		})
		m.syncCacheGauges()
		return encodeID(id), nil
	}
	if len(req.InitData) == 0 {
		return encodeID(0), nil // probe miss: client re-sends with payload
	}
	if int64(len(req.InitData)) != req.Size {
		return nil, ocl.Errf(ocl.ErrInvalidValue,
			"content-hashed init data of %d bytes must fill the %d-byte buffer",
			len(req.InitData), req.Size)
	}
	if datacache.ContentHash64(req.InitData) != req.ContentHash {
		return nil, ocl.Errf(ocl.ErrInvalidValue, "content hash does not match payload")
	}
	boardID, err := m.board.Alloc(req.Size)
	if err != nil {
		return nil, err
	}
	d, err := m.board.Write(boardID, 0, req.InitData)
	if err != nil {
		m.board.Free(boardID)
		return nil, err
	}
	m.board.Hold(d)
	canonical, inserted := m.bufcache.Insert(key, boardID)
	if !inserted {
		// A racing session uploaded the same content first; its entry is
		// canonical and ours is a duplicate.
		m.board.Free(boardID)
	}
	m.mBufMisses.Inc()
	m.flight.Record(s.flight, flightrec.Event{Kind: flightrec.KindBufferMiss})
	id := s.insertBuffer(bufferInfo{
		boardID: canonical, size: req.Size, flags: ocl.MemFlags(req.Flags),
		hash: req.ContentHash, shared: true,
	})
	m.syncCacheGauges()
	return encodeID(id), nil
}

// dropBuffer returns one session buffer: shared handles decrement the
// cache reference (the bytes stay resident for future hits), private ones
// free board memory.
func (m *Manager) dropBuffer(b bufferInfo) error {
	if b.shared {
		m.bufcache.Release(datacache.BufferKey{Hash: b.hash, Size: b.size}, b.boardID)
		return nil
	}
	return m.board.Free(b.boardID)
}

// syncCacheGauges pushes the buffer cache's resident size into the
// exported gauges.
func (m *Manager) syncCacheGauges() {
	if m.bufcache != nil {
		st := m.bufcache.Stats()
		m.gBufResident.Set(float64(st.ResidentBytes))
		m.gBufEntries.Set(float64(st.Entries))
	}
}

// CacheStats is the /debug/cache snapshot: the buffer cache plus the
// board's device-to-device copy counters, which together describe how much
// data the reuse layer kept off the client path.
type CacheStats struct {
	Device      string                `json:"device"`
	Node        string                `json:"node"`
	BufferCache datacache.BufferStats `json:"buffer_cache"`
	CopyOps     int64                 `json:"copy_ops"`
	CopyBytes   int64                 `json:"copy_bytes"`
}

// CacheStats snapshots the reuse layer.
func (m *Manager) CacheStats() CacheStats {
	st := CacheStats{Device: m.cfg.DeviceID, Node: m.cfg.Node}
	if m.bufcache != nil {
		st.BufferCache = m.bufcache.Stats()
	}
	bs := m.board.Stats()
	st.CopyOps = bs.CopyOps
	st.CopyBytes = bs.CopyBytes
	return st
}

// CacheStatsHandler serves CacheStats as JSON (the /debug/cache endpoint,
// consumed by blastctl top).
func (m *Manager) CacheStatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, m.CacheStats())
	})
}
