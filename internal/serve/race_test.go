//go:build race

package serve

// raceEnabled reports a -race build: heap probes skip there, because
// the race detector's shadow memory swamps what they measure.
const raceEnabled = true
