//go:build race

package main

// raceEnabled shrinks the smoke pass under the race detector, which slows
// the GF(2^8) kernels far past the per-fetch timeout at full shape.
const raceEnabled = true
