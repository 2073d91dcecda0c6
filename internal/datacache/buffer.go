package datacache

import (
	"container/list"
	"sync"
)

// BufferKey addresses a cached device buffer. Size is part of the key so a
// truncated payload with a colliding hash cannot alias a longer one: a
// cache entry's contents are fully determined by (hash, size) only when
// the uploaded payload covered the whole buffer, which the manager
// enforces before inserting.
type BufferKey struct {
	Hash uint64
	Size int64
}

// bufEntry is one resident device buffer. refs counts the sessions holding
// a handle to it; an entry stays resident at refs==0 (that idle residency
// IS the reuse) and only then becomes eligible for LRU eviction.
type bufEntry struct {
	key     BufferKey
	boardID uint64
	refs    int
	elem    *list.Element
}

// BufferCache is the content-addressed cache of resident device buffers.
// Entries are read-only board allocations shared across sessions; the
// cache owns their lifetime and calls free when it evicts one. All methods
// are safe for concurrent use.
type BufferCache struct {
	capBytes int64
	free     func(boardID uint64)

	mu       sync.Mutex
	entries  map[BufferKey]*bufEntry
	lru      *list.List // front = most recently used; refs==0 entries only are evictable
	resident int64

	// orphans tracks invalidated-but-pinned buffers by board ID: the entry
	// left the key map (a reflash made its contents stale, so no future
	// Acquire may hit it) but sessions still hold handles; the board memory
	// is freed when the last holder releases.
	orphans map[uint64]int

	hits, misses, evictions, invalidations uint64
	bytesSaved                             int64
}

// NewBufferCache returns a cache bounded to capBytes of resident board
// memory. free releases an evicted entry's board allocation; it is called
// without the cache lock held.
func NewBufferCache(capBytes int64, free func(boardID uint64)) *BufferCache {
	return &BufferCache{
		capBytes: capBytes,
		free:     free,
		entries:  make(map[BufferKey]*bufEntry),
		lru:      list.New(),
		orphans:  make(map[uint64]int),
	}
}

// Acquire looks up k and, on a hit, takes a reference on the shared buffer
// and returns its board allocation ID. On a miss the caller uploads the
// payload and calls Insert.
func (c *BufferCache) Acquire(k BufferKey) (boardID uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[k]
	if !ok {
		c.misses++
		return 0, false
	}
	ent.refs++
	c.lru.MoveToFront(ent.elem)
	c.hits++
	c.bytesSaved += k.Size
	return ent.boardID, true
}

// Insert registers a freshly uploaded board buffer under k with one
// reference (the inserting session's) and returns the canonical board ID.
// If a racing session inserted the same key first, the existing entry wins:
// Insert takes a reference on it and returns (existingID, false), and the
// caller must free its duplicate upload. Inserting may evict idle entries
// to respect the byte bound; an entry larger than the whole bound is still
// admitted (it simply pins the cache to itself until released and evicted).
func (c *BufferCache) Insert(k BufferKey, boardID uint64) (uint64, bool) {
	c.mu.Lock()
	if ent, ok := c.entries[k]; ok {
		ent.refs++
		c.lru.MoveToFront(ent.elem)
		id := ent.boardID
		c.mu.Unlock()
		return id, false
	}
	ent := &bufEntry{key: k, boardID: boardID, refs: 1}
	ent.elem = c.lru.PushFront(ent)
	c.entries[k] = ent
	c.resident += k.Size
	evicted := c.evictLocked()
	c.mu.Unlock()
	for _, id := range evicted {
		c.free(id)
	}
	return boardID, true
}

// Release drops one reference on the buffer a session acquired under k.
// The entry stays resident for future hits; it only becomes evictable once
// every holder has released it. boardID disambiguates: if the entry was
// invalidated while the caller held it (and possibly replaced under the
// same key by a fresh upload), the release lands on the orphan, and the
// orphan's board memory is freed with the last holder.
func (c *BufferCache) Release(k BufferKey, boardID uint64) {
	c.mu.Lock()
	if ent, ok := c.entries[k]; ok && ent.boardID == boardID {
		if ent.refs > 0 {
			ent.refs--
		}
		c.mu.Unlock()
		return
	}
	refs, ok := c.orphans[boardID]
	if !ok {
		c.mu.Unlock()
		return
	}
	refs--
	if refs > 0 {
		c.orphans[boardID] = refs
		c.mu.Unlock()
		return
	}
	delete(c.orphans, boardID)
	c.mu.Unlock()
	c.free(boardID)
}

// evictLocked drops idle (refs==0) entries from the LRU tail until the
// resident total fits capBytes, returning the board IDs to free.
func (c *BufferCache) evictLocked() []uint64 {
	var ids []uint64
	for c.resident > c.capBytes {
		var victim *bufEntry
		for e := c.lru.Back(); e != nil; e = e.Prev() {
			if ent := e.Value.(*bufEntry); ent.refs == 0 {
				victim = ent
				break
			}
		}
		if victim == nil {
			break // everything is pinned; stay over budget until releases
		}
		c.lru.Remove(victim.elem)
		delete(c.entries, victim.key)
		c.resident -= victim.key.Size
		c.evictions++
		ids = append(ids, victim.boardID)
	}
	return ids
}

// Invalidate drops every entry, pinned or not: a reconfiguration changed
// the board's memory geometry, so no cached buffer's contents can be
// trusted. Idle entries free their board memory immediately; pinned
// entries are orphaned — no future Acquire can hit them, and their memory
// is freed when the last holding session releases. Returns the number of
// entries dropped.
func (c *BufferCache) Invalidate() int {
	c.mu.Lock()
	var ids []uint64
	dropped := 0
	for _, ent := range c.entries {
		dropped++
		c.lru.Remove(ent.elem)
		delete(c.entries, ent.key)
		c.resident -= ent.key.Size
		if ent.refs == 0 {
			ids = append(ids, ent.boardID)
		} else {
			c.orphans[ent.boardID] = ent.refs
		}
	}
	c.invalidations += uint64(dropped)
	c.mu.Unlock()
	for _, id := range ids {
		c.free(id)
	}
	return dropped
}

// BufferStats is a point-in-time snapshot of the cache counters.
type BufferStats struct {
	Entries       int    `json:"entries"`
	ResidentBytes int64  `json:"resident_bytes"`
	PinnedEntries int    `json:"pinned_entries"`
	OrphanedBufs  int    `json:"orphaned_buffers"`
	CapBytes      int64  `json:"cap_bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	BytesSaved    int64  `json:"bytes_saved"`
}

// Stats snapshots the cache.
func (c *BufferCache) Stats() BufferStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	pinned := 0
	for _, ent := range c.entries {
		if ent.refs > 0 {
			pinned++
		}
	}
	return BufferStats{
		Entries:       len(c.entries),
		ResidentBytes: c.resident,
		PinnedEntries: pinned,
		OrphanedBufs:  len(c.orphans),
		CapBytes:      c.capBytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		BytesSaved:    c.bytesSaved,
	}
}
