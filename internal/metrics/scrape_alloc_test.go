//go:build !race

// Allocation counts mean nothing under -race: its sync.Pool drops a random
// share of Puts, and net/http pools its readers and writers.

package metrics

import (
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// managerExposition is a Device Manager's /metrics after a shared_board
// bfbench run: two tenants, 179 samples, six 16-bucket histograms, 17.8 KB.
func managerExposition(t *testing.T) []byte {
	t.Helper()
	body, err := os.ReadFile("testdata/manager.prom")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// perRun reports the mean allocations and allocated bytes of one call of
// f, on one P like testing.AllocsPerRun.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// What a steady-state scrape of the manager exposition over HTTP may
// allocate, both ends of the connection and the TSDB included. Before
// the scanner-free parse, the sized body read and the scratch-key ingest
// the same scrape took 1,053 allocations and 1.24 MiB, and appending its
// known series took 326 allocations.
const (
	scrapeAllocBudget = 470
	scrapeByteBudget  = 150 << 10
)

func TestScrapeAllocationBudget(t *testing.T) {
	body := managerExposition(t)
	t.Run("http", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(body))) // as Registry.Handler sends it
			w.Write(body)
		}))
		defer srv.Close()

		// A minute of retention at a 2 s tick: after the warm-up every
		// scrape adds a point and ages one out.
		db := NewTSDB(time.Minute)
		sc := NewScraper(db, 2*time.Second)
		now := time.Unix(1700000000, 0)
		sc.Now = func() time.Time { return now }
		sc.AddTarget("fpga-B", srv.URL)
		scrape := func() {
			now = now.Add(2 * time.Second)
			sc.ScrapeOnce()
		}
		for i := 0; i < 40; i++ {
			scrape()
		}
		if err := sc.LastError("fpga-B"); err != nil {
			t.Fatal(err)
		}
		allocs, bytes := perRun(100, scrape)
		t.Logf("steady-state scrape: %.0f allocations, %.1f KiB", allocs, bytes/1024)
		if allocs > scrapeAllocBudget || bytes > scrapeByteBudget {
			t.Fatalf("a scrape allocates %.0f times and %.1f KiB, budget %d and %d KiB",
				allocs, bytes/1024, scrapeAllocBudget, scrapeByteBudget>>10)
		}
	})

	// The ingest alone: a sample of a series the store already holds is
	// found by a key built in scratch space and appended through the
	// series' pointer. Point slices grow geometrically, so every series
	// is given room for the measured points first.
	t.Run("append known series", func(t *testing.T) {
		samples, err := Parse(string(body))
		if err != nil {
			t.Fatal(err)
		}
		db := NewTSDB(time.Hour)
		now := time.Unix(1700000000, 0)
		appendOnce := func() {
			now = now.Add(time.Second)
			db.Append(now, samples)
		}
		appendOnce()
		for _, st := range db.series {
			st.points = slices.Grow(st.points, 200)
		}
		if n := testing.AllocsPerRun(100, appendOnce); n != 0 {
			t.Fatalf("appending %d known series allocates %.0f times, want 0", len(samples), n)
		}
	})
}
