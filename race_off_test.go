//go:build !race

package energyclarity_test

const raceEnabled = false
