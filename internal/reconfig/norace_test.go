//go:build !race

package reconfig

const raceEnabled = false
