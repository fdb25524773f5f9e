//go:build !race

package eisvc

const raceEnabled = false
