//go:build !linux

package fpga

import "time"

// SleepUntil blocks the calling goroutine until deadline; it is where
// modelled board time becomes wall time. Outside Linux it is a plain
// time.Sleep, with the runtime timer's granularity (the syscall package
// has no Nanosleep on every system). A deadline already passed returns
// at once.
func SleepUntil(deadline time.Time) {
	time.Sleep(time.Until(deadline))
}
