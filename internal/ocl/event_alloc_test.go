//go:build !race

package ocl

import "testing"

var eventSink *BaseEvent

// An event that ends before anyone waits on it never makes a completion
// channel: waiting on it costs nothing, and a pre-completed event is one
// allocation, the event itself.
func TestEventAllocations(t *testing.T) {
	done := CompletedEvent(CommandMarker)
	if n := testing.AllocsPerRun(100, func() { done.Wait() }); n != 0 {
		t.Errorf("Wait on a terminal event allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { eventSink = CompletedEvent(CommandMarker) }); n != 1 {
		t.Errorf("CompletedEvent allocates %.0f times, want 1", n)
	}
}
