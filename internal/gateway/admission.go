package gateway

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Request headers the front door consults. Header names are
// case-insensitive on the wire; the constants are in canonical MIME form
// so that Header.Get looks them up without allocating a canonical copy.
const (
	// TenantHeader names the tenant a request belongs to for admission
	// control; absent, the function name is the tenant.
	TenantHeader = "X-Bf-Tenant"
)

// Budget is one tenant's admission budget: a token bucket refilled at
// Rate requests/second up to Burst tokens, both scaled by the priority
// class.
type Budget struct {
	// Rate is the sustained admitted request rate (tokens per second).
	Rate float64
	// Burst is the bucket capacity (how much a quiet tenant can save up).
	Burst float64
	// Priority multiplies Rate and Burst: a priority-3 tenant sustains
	// three times the budget of a priority-1 tenant on the same spec.
	// Zero means priority 1.
	Priority int
}

// effective returns the budget with the priority multiplier applied.
func (b Budget) effective() (rate, burst float64) {
	p := float64(b.Priority)
	if p < 1 {
		p = 1
	}
	rate, burst = b.Rate*p, b.Burst*p
	if burst < 1 {
		burst = 1
	}
	return rate, burst
}

// tokenBucket is one tenant's live bucket plus its admission counters.
type tokenBucket struct {
	tokens   float64
	last     time.Time
	admitted uint64
	rejected uint64
}

// Admission is the gateway's per-tenant token-bucket admission
// controller. Each tenant draws from its own bucket (override or the
// default budget); an empty bucket rejects with the time until the next
// token, which the handler surfaces as 429 + Retry-After.
type Admission struct {
	// Now is injectable for deterministic tests; defaults to time.Now.
	Now func() time.Time

	mu        sync.Mutex
	def       Budget
	overrides map[string]Budget
	buckets   map[string]*tokenBucket
}

// NewAdmission creates an admission controller with the given default
// per-tenant budget.
func NewAdmission(def Budget) *Admission {
	return &Admission{
		Now:       time.Now,
		def:       def,
		overrides: make(map[string]Budget),
		buckets:   make(map[string]*tokenBucket),
	}
}

// SetBudget overrides one tenant's budget (and resets its bucket to the
// new burst so the change takes effect immediately).
func (a *Admission) SetBudget(tenant string, b Budget) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.overrides[tenant] = b
	delete(a.buckets, tenant)
}

// budgetFor returns the budget governing a tenant. Called with a.mu held.
func (a *Admission) budgetFor(tenant string) Budget {
	if b, ok := a.overrides[tenant]; ok {
		return b
	}
	return a.def
}

// Admit draws one token from the tenant's bucket. When the bucket is
// empty it reports false and how long until the next token accrues — the
// Retry-After the handler returns with the 429.
func (a *Admission) Admit(tenant string) (ok bool, retryAfter time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.Now()
	rate, burst := a.budgetFor(tenant).effective()
	tb := a.buckets[tenant]
	if tb == nil {
		tb = &tokenBucket{tokens: burst, last: now}
		a.buckets[tenant] = tb
	}
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens = math.Min(burst, tb.tokens+rate*dt)
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		tb.admitted++
		return true, 0
	}
	tb.rejected++
	if rate <= 0 {
		// A zero-rate tenant is hard-blocked; advertise a long, finite
		// backoff rather than dividing by zero.
		return false, time.Hour
	}
	return false, time.Duration((1 - tb.tokens) / rate * float64(time.Second))
}

// TenantAdmission is one tenant's live admission state, served from
// /debug/gateway for blastctl top.
type TenantAdmission struct {
	Tenant   string  `json:"tenant"`
	Rate     float64 `json:"rate"`
	Burst    float64 `json:"burst"`
	Priority int     `json:"priority"`
	Tokens   float64 `json:"tokens"`
	Admitted uint64  `json:"admitted"`
	Rejected uint64  `json:"rejected"`
}

// Snapshot lists every tenant that has hit the front door, sorted by
// rejected count descending (the throttled tenants first), then name.
func (a *Admission) Snapshot() []TenantAdmission {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantAdmission, 0, len(a.buckets))
	for tenant, tb := range a.buckets {
		b := a.budgetFor(tenant)
		rate, burst := b.effective()
		p := b.Priority
		if p < 1 {
			p = 1
		}
		out = append(out, TenantAdmission{
			Tenant: tenant, Rate: rate, Burst: burst, Priority: p,
			Tokens: tb.tokens, Admitted: tb.admitted, Rejected: tb.rejected,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rejected != out[j].Rejected {
			return out[i].Rejected > out[j].Rejected
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// ParseAdmission builds an admission controller from -admission flag
// values. Each spec is "rate:burst[:priority]" — the default per-tenant
// budget — or "tenant=rate:burst[:priority]" for a per-tenant override:
//
//	-admission 50:100                   every tenant: 50 rps, burst 100
//	-admission gold=500:1000:2          tenant "gold": 2x(500 rps, burst 1000)
//
// At least one default (unprefixed) spec is required so unknown tenants
// have a budget.
func ParseAdmission(specs []string) (*Admission, error) {
	var adm *Admission
	var overrides []struct {
		tenant string
		b      Budget
	}
	for _, spec := range specs {
		tenant := ""
		body := spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			tenant, body = spec[:i], spec[i+1:]
			if tenant == "" {
				return nil, fmt.Errorf("gateway: -admission %q: empty tenant name", spec)
			}
		}
		b, err := parseBudget(body)
		if err != nil {
			return nil, fmt.Errorf("gateway: -admission %q: %w", spec, err)
		}
		if tenant == "" {
			if adm != nil {
				return nil, fmt.Errorf("gateway: -admission %q: default budget given twice", spec)
			}
			adm = NewAdmission(b)
		} else {
			overrides = append(overrides, struct {
				tenant string
				b      Budget
			}{tenant, b})
		}
	}
	if adm == nil {
		return nil, fmt.Errorf("gateway: -admission needs a default budget spec (rate:burst[:priority])")
	}
	for _, o := range overrides {
		adm.SetBudget(o.tenant, o.b)
	}
	return adm, nil
}

// parseBudget parses "rate:burst[:priority]".
func parseBudget(s string) (Budget, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Budget{}, fmt.Errorf("want rate:burst[:priority]")
	}
	// The negated comparisons also reject NaN; a budget must be finite.
	rate, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || !(rate >= 0) || math.IsInf(rate, 1) {
		return Budget{}, fmt.Errorf("bad rate %q", parts[0])
	}
	burst, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(burst >= 1) || math.IsInf(burst, 1) {
		return Budget{}, fmt.Errorf("bad burst %q (want >= 1)", parts[1])
	}
	b := Budget{Rate: rate, Burst: burst}
	if len(parts) == 3 {
		p, err := strconv.Atoi(parts[2])
		if err != nil || p < 1 {
			return Budget{}, fmt.Errorf("bad priority %q (want >= 1)", parts[2])
		}
		b.Priority = p
	}
	return b, nil
}
