//go:build race

package netio

// raceEnabled reports a -race build. The race detector drops a share of
// sync.Pool Puts on purpose, so pool-reuse assertions must tolerate misses.
const raceEnabled = true
