package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestArrivalsRepeatPerSeed(t *testing.T) {
	const horizon = 20 * time.Second
	a, again, other := arrivals(7, 60, horizon), arrivals(7, 60, horizon), arrivals(8, 60, horizon)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed must give the same schedule")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds must give different schedules")
	}
	// About rate*horizon arrivals, in order, inside the horizon.
	if n := float64(len(a)); math.Abs(n-1200) > 4*math.Sqrt(1200) {
		t.Errorf("%v arrivals at 60/s over 20 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= horizon {
			t.Fatalf("arrival %d at %v out of order or past the horizon", i, a[i])
		}
	}
}

func TestSeedStreamsAreIndependent(t *testing.T) {
	if newRand(1, "payload/light").Int63() == newRand(1, "arrivals/light").Int63() {
		t.Error("two purposes of one seed share a stream")
	}
	if newRand(1, "payload/light").Int63() != newRand(1, "payload/light").Int63() {
		t.Error("the same seed and purpose must repeat")
	}
}
