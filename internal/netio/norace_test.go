//go:build !race

package netio

const raceEnabled = false
