//go:build race

package core

// The race detector makes sync.Pool drop values at random, so allocation
// counts taken under it vary from run to run.
func init() { raceEnabled = true }
