//go:build linux

package fpga

import (
	"syscall"
	"time"
	"unsafe"
)

// SleepUntil blocks the calling goroutine until deadline; it is where
// modelled board time becomes wall time. On Linux it sleeps in
// nanosleep(2), which wakes within tens of microseconds: time.Sleep
// parks on a runtime timer that the netpoller's epoll_pwait only fires
// at millisecond granularity, so a ~2 ms hold overshot by ~0.9 ms. The
// cost is one OS thread blocked in the system call for the hold. Each
// pass re-derives the time left from the deadline, so an EINTR (the
// runtime's preemption signal) never cuts the sleep short. A deadline
// already passed returns at once.
func SleepUntil(deadline time.Time) {
	for {
		left := time.Until(deadline)
		if left <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(left))
		// syscall.Syscall is what syscall.Nanosleep calls, and every
		// binary links it already. Linking Nanosleep as well moves all
		// later standard-library code by 224 bytes, and the realigned
		// code ran unrelated hot loops slower (a 4 MiB math/rand fill
		// ~20% on a 2-vCPU x86-64 VM). EINTR: loop and sleep the rest.
		syscall.Syscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
}
