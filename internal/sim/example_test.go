package sim_test

import (
	"fmt"
	"time"

	"blastfunction/internal/sched"
	"blastfunction/internal/sim"
)

// ExampleEngine models two tenants sharing one FIFO board: requests at
// fixed intervals with 10ms service, reporting the utilization.
func ExampleEngine() {
	engine := sim.NewEngine()
	board, err := engine.NewServer(sched.FIFO)
	if err != nil {
		panic(err)
	}
	for tenant := 0; tenant < 2; tenant++ {
		name := fmt.Sprintf("tenant-%d", tenant)
		offset := time.Duration(tenant) * 5 * time.Millisecond
		var issue func()
		next := offset
		issue = func() {
			if engine.Now() >= time.Second {
				return
			}
			board.Enqueue(name, 1, 10*time.Millisecond, func(wait, service time.Duration) {
				next += 50 * time.Millisecond
				engine.At(next, issue)
			})
		}
		engine.At(offset, issue)
	}
	engine.Run(time.Second)
	fmt.Printf("served %d tasks, utilization %.0f%%\n",
		board.Served(), 100*board.BusyTime().Seconds()/engine.Now().Seconds())
	// Output:
	// served 40 tasks, utilization 40%
}
