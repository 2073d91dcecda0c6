package sched

import "time"

// drrPolicy is deficit round-robin weighted fair queuing keyed by
// tenant: each tenant holds a private FIFO, and the policy cycles over
// tenants with pending work, granting quantum*weight credit per visit
// and serving a tenant while its accumulated credit covers the head
// item's cost. Tenants with larger weights therefore drain
// proportionally more service-demand per round, and a multi-op task
// never lets its owner exceed its share for long.
//
// A starvation guard bounds worst-case wait: an item queued longer than
// the guard is served next regardless of deficits (its cost is still
// charged, so a guarded tenant repays the advance in later rounds).
type drrPolicy struct {
	guard time.Duration

	byKey map[string]*drrTenant
	// ring holds tenants with pending items; idx is the tenant currently
	// inside its service quantum.
	ring []*drrTenant
	idx  int
}

type drrTenant struct {
	key     string
	weight  int
	deficit int64
	items   []*Item
	active  bool
	// credited marks that this tenant already received its quantum for
	// the current visit: DRR credits once per visit, then serves while
	// the deficit covers the head. Without it, the tenant under the ring
	// cursor would be re-credited on every pop and never yield.
	credited bool
}

// quantum is the per-visit credit granted per weight unit: a typical
// small task's operation count, so weight-1 tenants still drain multi-op
// tasks in a bounded number of rounds.
const quantum = 4

func newDRRPolicy(guard time.Duration) *drrPolicy {
	return &drrPolicy{guard: guard, byKey: make(map[string]*drrTenant)}
}

func (p *drrPolicy) push(it *Item) {
	t, ok := p.byKey[it.Tenant]
	if !ok {
		t = &drrTenant{key: it.Tenant}
		p.byKey[it.Tenant] = t
	}
	t.weight = it.Weight // latest binding wins
	t.items = append(t.items, it)
	if !t.active {
		t.active = true
		p.ring = append(p.ring, t)
	}
}

// deactivate drops ring[i], resetting its deficit: an emptied tenant
// must not bank credit while idle (standard DRR).
func (p *drrPolicy) deactivate(i int) {
	t := p.ring[i]
	t.active = false
	t.deficit = 0
	t.credited = false
	p.ring = append(p.ring[:i], p.ring[i+1:]...)
	if p.idx > i {
		p.idx--
	}
	if len(p.ring) == 0 {
		p.idx = 0
	} else {
		p.idx %= len(p.ring)
	}
}

func (p *drrPolicy) pop(now time.Time) *Item {
	if len(p.ring) == 0 {
		return nil
	}
	if p.guard > 0 {
		if it := p.popStarved(now); it != nil {
			return it
		}
	}
	for {
		t := p.ring[p.idx]
		if len(t.items) == 0 {
			// Emptied out-of-band (Remove); drop from the ring.
			p.deactivate(p.idx)
			if len(p.ring) == 0 {
				return nil
			}
			continue
		}
		head := t.items[0]
		if !t.credited {
			t.deficit += quantum * int64(t.weight)
			t.credited = true
		}
		if t.deficit >= head.Cost {
			t.deficit -= head.Cost
			t.items = t.items[1:]
			if len(t.items) == 0 {
				p.deactivate(p.idx)
			}
			// idx stays: the tenant keeps its turn while credit lasts.
			return head
		}
		// Visit over: the banked deficit carries to the next round.
		t.credited = false
		p.idx = (p.idx + 1) % len(p.ring)
	}
}

// popStarved serves the oldest head item that has waited past the guard,
// if any. Cost is charged (deficit may go negative), so guarded service
// is an advance against the tenant's share, not free capacity.
func (p *drrPolicy) popStarved(now time.Time) *Item {
	besti := -1
	for i, t := range p.ring {
		if len(t.items) == 0 {
			continue
		}
		h := t.items[0]
		if now.Sub(h.Submitted) < p.guard {
			continue
		}
		if besti < 0 || h.seq < p.ring[besti].items[0].seq {
			besti = i
		}
	}
	if besti < 0 {
		return nil
	}
	t := p.ring[besti]
	it := t.items[0]
	t.items = t.items[1:]
	t.deficit -= it.Cost
	if len(t.items) == 0 {
		p.deactivate(besti)
	}
	return it
}

func (p *drrPolicy) remove(session uint64) []*Item {
	var out []*Item
	// Walk the ring backwards so deactivating emptied tenants does not
	// skip entries.
	for i := len(p.ring) - 1; i >= 0; i-- {
		t := p.ring[i]
		kept := t.items[:0]
		for _, it := range t.items {
			if it.Session == session {
				out = append(out, it)
			} else {
				kept = append(kept, it)
			}
		}
		for j := len(kept); j < len(t.items); j++ {
			t.items[j] = nil
		}
		t.items = kept
		if len(t.items) == 0 {
			p.deactivate(i)
		}
	}
	sortItemsBySeq(out)
	return out
}

func (p *drrPolicy) len() int {
	n := 0
	for _, t := range p.ring {
		n += len(t.items)
	}
	return n
}
