package sched

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkPushPop measures the queue hot path — one Push followed by
// one Pop, the manager's submit/worker handoff — for each discipline at
// growing tenant counts. The fifo numbers bound the overhead the
// scheduler abstraction adds over the channel it replaced; drr shows
// the price of fairness.
func BenchmarkPushPop(b *testing.B) {
	for _, d := range Disciplines {
		for _, tenants := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/tenants=%d", d, tenants), func(b *testing.B) {
				q, err := New(d, Config{Capacity: 1 << 16, StarvationGuard: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer q.Close()
				names := make([]string, tenants)
				for i := range names {
					names[i] = fmt.Sprintf("fn-%d", i)
				}
				items := make([]Item, b.N)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					it := &items[i]
					it.Session = uint64(i%tenants) + 1
					it.Tenant = names[i%tenants]
					it.Cost = int64(1 + i%4)
					if err := q.Push(it); err != nil {
						b.Fatal(err)
					}
					if _, ok := q.Pop(context.Background()); !ok {
						b.Fatal("pop failed")
					}
				}
			})
		}
	}
}

// BenchmarkBacklogPop isolates Pop on a standing backlog: the worst case
// for drr's ring walk at depth.
func BenchmarkBacklogPop(b *testing.B) {
	const depth = 1024
	for _, d := range Disciplines {
		for _, tenants := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/tenants=%d", d, tenants), func(b *testing.B) {
				q, err := New(d, Config{Capacity: depth + 1, StarvationGuard: -1})
				if err != nil {
					b.Fatal(err)
				}
				defer q.Close()
				names := make([]string, tenants)
				for i := range names {
					names[i] = fmt.Sprintf("fn-%d", i)
				}
				items := make([]Item, depth)
				for i := range items {
					items[i] = Item{Session: uint64(i%tenants) + 1, Tenant: names[i%tenants], Cost: 1}
					q.Push(&items[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					it, ok := q.Pop(context.Background())
					if !ok {
						b.Fatal("pop failed")
					}
					// Keep the backlog standing: recycle the popped item
					// (a fresh copy — the original may still be referenced
					// by the policy's structures until Push restamps it).
					ni := *it
					ni.Submitted = time.Time{}
					if err := q.Push(&ni); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
