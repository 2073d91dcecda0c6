package flightrec

import (
	"testing"
	"time"
)

// BenchmarkLifecycle is the milestone-at-a-time shape: one lock
// acquisition per recorded event.
func BenchmarkLifecycle(b *testing.B) {
	rec := New(Config{Process: "bench"})
	defer rec.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := rec.Begin(0, "bench")
		rec.Record(key, Event{Kind: KindEnqueued, Depth: 1, Pos: 1})
		rec.Record(key, Event{Kind: KindScheduled, Dur: time.Millisecond})
		rec.Record(key, Event{Kind: KindBufferMiss})
		rec.Record(key, Event{Kind: KindUpload, Dur: time.Millisecond, Detail: "device-write"})
		rec.Record(key, Event{Kind: KindExecute, Dur: time.Millisecond, Detail: "copy"})
		rec.Record(key, Event{Kind: KindNotify, Dur: time.Microsecond})
		rec.Complete(key, 3*time.Millisecond, false, "")
	}
}

// BenchmarkLifecycleBatched is the shape the hot paths actually use:
// milestones accumulated lock-free and applied by CompleteWith in one
// locked pass — three lock acquisitions per task instead of eight.
func BenchmarkLifecycleBatched(b *testing.B) {
	rec := New(Config{Process: "bench"})
	defer rec.Close()
	batch := []Event{
		{Kind: KindEnqueued, Depth: 1, Pos: 1},
		{Kind: KindScheduled, Dur: time.Millisecond},
		{Kind: KindUpload, Dur: time.Millisecond, Detail: "device-write"},
		{Kind: KindExecute, Dur: time.Millisecond, Detail: "copy"},
		{Kind: KindNotify, Dur: time.Microsecond},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := rec.Begin(0, "bench")
		rec.Record(key, Event{Kind: KindBufferMiss})
		rec.CompleteWith(key, "bench", batch, time.Time{}, 3*time.Millisecond, false, "")
	}
}
