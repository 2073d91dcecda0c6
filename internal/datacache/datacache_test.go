package datacache

import (
	"fmt"
	"sync"
	"testing"
)

func TestContentHash64(t *testing.T) {
	a := ContentHash64([]byte("weights-v1"))
	b := ContentHash64([]byte("weights-v2"))
	if a == b {
		t.Fatal("distinct payloads hashed equal")
	}
	if a != ContentHash64([]byte("weights-v1")) {
		t.Fatal("hash not deterministic")
	}
	if ContentHash64(nil) == 0 || ContentHash64([]byte{}) == 0 {
		t.Fatal("zero hash leaked; 0 is the no-hash wire sentinel")
	}
}

func TestBufferCacheHitMissRelease(t *testing.T) {
	var freed []uint64
	c := NewBufferCache(1<<20, func(id uint64) { freed = append(freed, id) })
	k := BufferKey{Hash: 42, Size: 1024}

	if _, ok := c.Acquire(k); ok {
		t.Fatal("hit on empty cache")
	}
	if id, inserted := c.Insert(k, 7); !inserted || id != 7 {
		t.Fatalf("Insert = (%d, %v), want (7, true)", id, inserted)
	}
	if id, ok := c.Acquire(k); !ok || id != 7 {
		t.Fatalf("Acquire = (%d, %v), want (7, true)", id, ok)
	}
	// Two holders now; release both — the entry must stay resident.
	c.Release(k, 7)
	c.Release(k, 7)
	if id, ok := c.Acquire(k); !ok || id != 7 {
		t.Fatal("idle entry must stay resident for reuse")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.BytesSaved != 2048 {
		t.Fatalf("stats = %+v", st)
	}
	if len(freed) != 0 {
		t.Fatalf("freed %v without eviction", freed)
	}
}

func TestBufferCacheInsertRace(t *testing.T) {
	c := NewBufferCache(1<<20, func(uint64) {})
	k := BufferKey{Hash: 9, Size: 64}
	c.Insert(k, 1)
	// A second uploader lost the race: the canonical entry wins and the
	// caller learns to free its duplicate.
	id, inserted := c.Insert(k, 2)
	if inserted || id != 1 {
		t.Fatalf("racing Insert = (%d, %v), want (1, false)", id, inserted)
	}
}

func TestBufferCacheEvictsIdleLRUOnly(t *testing.T) {
	var freed []uint64
	c := NewBufferCache(256, func(id uint64) { freed = append(freed, id) })
	kPinned := BufferKey{Hash: 1, Size: 128}
	kIdle := BufferKey{Hash: 2, Size: 128}
	c.Insert(kPinned, 10) // stays referenced
	c.Insert(kIdle, 11)
	c.Release(kIdle, 11) // idle, LRU victim candidate

	// 128 more bytes exceed the 256 cap: the idle entry must go, the
	// pinned one must survive.
	kNew := BufferKey{Hash: 3, Size: 128}
	c.Insert(kNew, 12)
	if len(freed) != 1 || freed[0] != 11 {
		t.Fatalf("freed %v, want [11]", freed)
	}
	if _, ok := c.Acquire(kPinned); !ok {
		t.Fatal("pinned entry evicted")
	}
	if _, ok := c.Acquire(kIdle); ok {
		t.Fatal("evicted entry still resident")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestBufferCacheInvalidateOrphansPinned(t *testing.T) {
	var freed []uint64
	c := NewBufferCache(1<<20, func(id uint64) { freed = append(freed, id) })
	kPinned := BufferKey{Hash: 1, Size: 64}
	kIdle := BufferKey{Hash: 2, Size: 64}
	c.Insert(kPinned, 1) // still held
	c.Insert(kIdle, 2)
	c.Release(kIdle, 2)

	// Geometry changed: everything goes. The idle buffer frees now, the
	// pinned one is orphaned until its holder releases.
	if n := c.Invalidate(); n != 2 {
		t.Fatalf("Invalidate = %d, want 2", n)
	}
	if len(freed) != 1 || freed[0] != 2 {
		t.Fatalf("freed %v, want [2]", freed)
	}
	if _, ok := c.Acquire(kPinned); ok {
		t.Fatal("invalidated entry still acquirable")
	}
	if st := c.Stats(); st.Entries != 0 || st.OrphanedBufs != 1 || st.Invalidations != 2 {
		t.Fatalf("stats after invalidate = %+v", st)
	}

	// A fresh upload reuses the old key with a new board buffer: the
	// holder's eventual release must land on the orphan, not the new entry.
	c.Insert(kPinned, 9)
	c.Release(kPinned, 1)
	if len(freed) != 2 || freed[1] != 1 {
		t.Fatalf("freed %v, want [2 1]", freed)
	}
	if id, ok := c.Acquire(kPinned); !ok || id != 9 {
		t.Fatalf("new entry disturbed by orphan release: (%d, %v)", id, ok)
	}
	if st := c.Stats(); st.OrphanedBufs != 0 {
		t.Fatalf("orphan not cleared: %+v", st)
	}
}

func TestBufferCacheConcurrent(t *testing.T) {
	c := NewBufferCache(4096, func(uint64) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := BufferKey{Hash: uint64(i%16 + 1), Size: 256}
				id, ok := c.Acquire(k)
				if !ok {
					id, _ = c.Insert(k, uint64(g*1000+i))
				}
				c.Release(k, id)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.ResidentBytes > 4096 {
		t.Fatalf("resident %d over cap with nothing pinned", st.ResidentBytes)
	}
}

func BenchmarkContentHash64(b *testing.B) {
	for _, size := range []int{4 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ContentHash64(buf)
			}
		})
	}
}
