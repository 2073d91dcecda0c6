//go:build race

package manager_test

// raceEnabled reports a -race build, whose instrumented memory copies
// cost about 1.2 ms per MiB.
const raceEnabled = true
