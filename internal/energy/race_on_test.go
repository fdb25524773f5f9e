//go:build race

package energy

// raceEnabled: under the race detector sync.Pool drops items at random, so
// exact allocation counts do not hold.
const raceEnabled = true
