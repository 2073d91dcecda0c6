//go:build !race

package manager_test

const raceEnabled = false
