package ocl

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEventLifecycle(t *testing.T) {
	e := NewEvent(CommandWriteBuffer)
	if e.CommandType() != CommandWriteBuffer {
		t.Fatalf("CommandType = %v", e.CommandType())
	}
	if e.Status() != Queued {
		t.Fatalf("new event status = %v, want Queued", e.Status())
	}
	e.SetStatus(Submitted)
	if e.Status() != Submitted {
		t.Fatalf("status = %v, want Submitted", e.Status())
	}
	e.SetStatus(Running)
	e.Complete()
	if e.Status() != Complete {
		t.Fatalf("status = %v, want Complete", e.Status())
	}
	if err := e.Wait(); err != nil {
		t.Fatalf("Wait returned %v", err)
	}
}

func TestEventMonotonicity(t *testing.T) {
	e := NewEvent(CommandTask)
	e.SetStatus(Running)
	e.SetStatus(Submitted) // regression must be ignored
	if e.Status() != Running {
		t.Fatalf("status regressed to %v", e.Status())
	}
	e.Complete()
	e.SetStatus(Running) // post-terminal transitions ignored
	if e.Status() != Complete {
		t.Fatalf("terminal state not sticky: %v", e.Status())
	}
}

func TestEventFailure(t *testing.T) {
	e := NewEvent(CommandReadBuffer)
	e.Fail(Errf(ErrOutOfResources, "device queue full"))
	if !e.Status().Failed() {
		t.Fatalf("status = %v, want failure", e.Status())
	}
	if err := e.Wait(); err == nil {
		t.Fatal("Wait must return the terminal error")
	}
	if StatusOf(e.Err()) != ErrOutOfResources {
		t.Fatalf("Err = %v", e.Err())
	}
	// Failure is sticky: a later Complete must not resurrect the event.
	e.Complete()
	if !e.Status().Failed() {
		t.Fatal("failure was overwritten by Complete")
	}
}

func TestEventFailNilErrCompletes(t *testing.T) {
	e := NewEvent(CommandTask)
	e.Fail(nil)
	if e.Status() != Complete || e.Err() != nil {
		t.Fatalf("Fail(nil) should complete; status=%v err=%v", e.Status(), e.Err())
	}
}

func TestEventWaitBlocksUntilComplete(t *testing.T) {
	e := NewEvent(CommandNDRangeKernel)
	released := make(chan error, 1)
	go func() { released <- e.Wait() }()
	select {
	case <-released:
		t.Fatal("Wait returned before completion")
	case <-time.After(10 * time.Millisecond):
	}
	e.Complete()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("Wait returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Wait did not return after completion")
	}
}

func TestEventConcurrentWaiters(t *testing.T) {
	e := NewEvent(CommandMarker)
	const waiters = 32
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Wait()
		}(i)
	}
	e.Complete()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
}

func TestWaitForEvents(t *testing.T) {
	a := CompletedEvent(CommandMarker)
	b := NewEvent(CommandTask)
	done := make(chan error, 1)
	go func() { done <- WaitForEvents(a, b) }()
	select {
	case err := <-done:
		t.Fatalf("WaitForEvents returned %v before its last event completed", err)
	default:
	}
	b.Complete()
	if err := <-done; err != nil {
		t.Fatalf("WaitForEvents = %v", err)
	}
}

// The completion channel is made by the first waiter of a live event:
// waiters racing the terminal transition must all see it, whichever side
// gets the event lock first.
func TestEventWaitersRaceTermination(t *testing.T) {
	for _, fail := range []bool{false, true} {
		for round := 0; round < 50; round++ {
			e := NewEvent(CommandTask)
			const n = 8
			start := make(chan struct{})
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func() {
					<-start
					errs <- e.Wait()
				}()
			}
			go func() {
				<-start
				if fail {
					e.Fail(ErrOutOfResources)
				} else {
					e.Complete()
				}
			}()
			close(start)
			timeout := time.After(5 * time.Second)
			for i := 0; i < n; i++ {
				select {
				case err := <-errs:
					if fail && StatusOf(err) != ErrOutOfResources || !fail && err != nil {
						t.Fatalf("fail=%v: Wait returned %v", fail, err)
					}
				case <-timeout:
					t.Fatalf("fail=%v round %d: %d of %d waiters returned", fail, round, i, n)
				}
			}
		}
	}
}

func TestWaitForEventsPropagatesFailure(t *testing.T) {
	a := CompletedEvent(CommandMarker)
	b := NewEvent(CommandTask)
	b.Fail(ErrOutOfResources)
	err := WaitForEvents(a, b)
	if StatusOf(err) != ErrExecStatusErrorInWait {
		t.Fatalf("err = %v, want CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST", err)
	}
}

func TestWaitForEventsNilEvent(t *testing.T) {
	if err := WaitForEvents(CompletedEvent(CommandMarker), nil); StatusOf(err) != ErrInvalidEventWaitList {
		t.Fatalf("err = %v", err)
	}
}

func TestCompletedEventConstructor(t *testing.T) {
	c := CompletedEvent(CommandBarrier)
	if c.Status() != Complete || c.CommandType() != CommandBarrier {
		t.Fatalf("CompletedEvent: status=%v type=%v", c.Status(), c.CommandType())
	}
}

func TestEventRandomTransitionSequences(t *testing.T) {
	// Property: under any sequence of SetStatus/Fail/Complete calls, the
	// status never regresses, terminal states are sticky, and Wait always
	// returns once any terminal call happened.
	if err := quick.Check(func(ops []uint8) bool {
		e := NewEvent(CommandTask)
		lowest := Queued
		terminal := false
		for _, op := range ops {
			switch op % 5 {
			case 0:
				e.SetStatus(Submitted)
			case 1:
				e.SetStatus(Running)
			case 2:
				e.Complete()
				terminal = true
			case 3:
				e.Fail(ErrOutOfResources)
				terminal = true
			case 4:
				e.SetStatus(Queued) // regression attempt
			}
			s := e.Status()
			if !s.Failed() && s > lowest {
				return false // regressed
			}
			if !s.Failed() {
				lowest = s
			}
			if terminal && !e.Status().Done() {
				return false // terminal state lost
			}
		}
		if terminal {
			done := make(chan struct{})
			go func() { e.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(time.Second):
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
